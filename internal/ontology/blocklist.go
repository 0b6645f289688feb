package ontology

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Blocklist is a set of advertising/tracking hostnames to exclude from
// profiling input. The paper merges three public lists (adaway.org,
// hosts-file.net, pgl.yoyo.org); roughly 3K listed hostnames appeared in
// their traces and accounted for more than 8% of connections (Section 5.4).
type Blocklist struct {
	hosts map[string]struct{}
}

// NewBlocklist returns an empty blocklist.
func NewBlocklist() *Blocklist {
	return &Blocklist{hosts: make(map[string]struct{})}
}

// Add inserts a hostname (lower-cased) into the list.
func (b *Blocklist) Add(host string) {
	h := strings.ToLower(strings.TrimSpace(host))
	if h != "" {
		b.hosts[h] = struct{}{}
	}
}

// Contains reports whether host is blocked. Matching is exact and
// case-insensitive.
func (b *Blocklist) Contains(host string) bool {
	_, ok := b.hosts[strings.ToLower(host)]
	return ok
}

// Len returns the number of blocked hostnames.
func (b *Blocklist) Len() int { return len(b.hosts) }

// ParseHostsFile reads blocklist entries from r. Two formats found in the
// wild are accepted, matching the paper's three sources:
//
//   - "hosts" format: lines like "127.0.0.1 ads.example.com" or
//     "0.0.0.0 tracker.example.net" (adaway.org, hosts-file.net, yoyo's
//     hosts output); the IP column is discarded.
//   - plain format: one hostname per line.
//
// Comments beginning with '#' and blank lines are ignored. It returns the
// number of entries added.
func (b *Blocklist) ParseHostsFile(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	added := 0
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		var host string
		switch len(fields) {
		case 0:
			continue
		case 1:
			host = fields[0]
		default:
			// hosts format: "<ip> <host> [aliases...]" — take the
			// second column and any aliases.
			if !looksLikeIP(fields[0]) {
				host = fields[0]
			} else {
				for _, h := range fields[1:] {
					if h != "localhost" && !looksLikeIP(h) {
						b.Add(h)
						added++
					}
				}
				continue
			}
		}
		if host == "localhost" || looksLikeIP(host) {
			continue
		}
		b.Add(host)
		added++
	}
	if err := sc.Err(); err != nil {
		return added, fmt.Errorf("ontology: parsing hosts file: %w", err)
	}
	return added, nil
}

// looksLikeIP is a cheap structural test good enough to discard the IP
// column of hosts files (it does not validate octet ranges).
func looksLikeIP(s string) bool {
	if strings.Count(s, ":") >= 2 {
		return true // IPv6-ish
	}
	dots := 0
	for _, r := range s {
		switch {
		case r == '.':
			dots++
		case r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return dots == 3
}
