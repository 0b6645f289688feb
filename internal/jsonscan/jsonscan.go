// Package jsonscan is the one JSON scanner of the hops that carry bulk
// bodies: on /v1/profile/batch the gateway splits a batch body into its
// sessions' byte ranges (ArrayField) and the shard decodes those
// sessions into host lists (StringArrays); on /v1/import the shard
// decodes a migration or bulk-load chunk into its visits (Import). Each
// is one strict pass that answers as encoding/json does or leaves the
// body to it. FuzzArrayField (internal/cluster), FuzzProfileBatchDecode
// and FuzzImportDecode (internal/server) hold the three to the library.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

const maxJSONDepth = 10000 // encoding/json's nesting limit

// ArrayField returns the elements of the array that raw's top-level
// object holds under key, as sub-slices of raw: the gateway forwards
// byte ranges of a batch and never needs what is inside them. It is one
// strict pass that accepts and rejects exactly what
//
//	json.NewDecoder(bytes.NewReader(raw)).Decode(&struct{ F []json.RawMessage }{})
//
// does with F named key (FuzzArrayField holds it to that): the first
// top-level value must be an object or null and is validated whole,
// whatever follows it is ignored, the key matches case-insensitively
// with the last duplicate winning, and its value must be an array or
// null.
func ArrayField(raw []byte, key string) ([]json.RawMessage, error) {
	spans, err := arrayField(raw, key, false, skipElem)
	if spans == nil {
		return nil, err
	}
	elems := make([]json.RawMessage, len(spans))
	for j, sp := range spans {
		elems[j] = raw[sp.start:sp.end:sp.end]
	}
	return elems, nil
}

// span is one array element, raw[start:end].
type span struct{ start, end int }

// errDeclined stops a pass at what StringArrays or Import leaves to the
// library: under arrayField's only, a member other than the key or the
// key twice; a session that is not null or an array of strings and
// nulls; an import body outside the shape Import takes.
var errDeclined = errors.New("jsonscan: left to encoding/json")

// arrayField is ArrayField as spans — nil when key's value is null or
// absent — with each element scanned by elem, which returns the index
// past the element starting at raw[i]. With only, the object may hold
// no member but key, at most once.
func arrayField(raw []byte, key string, only bool, elem func(raw []byte, i int) (int, error)) ([]span, error) {
	i := skipSpace(raw, 0)
	if hasLiteral(raw, i, "null") {
		return nil, nil
	}
	if at(raw, i) != '{' {
		return nil, syntaxError(raw, i)
	}
	var elems []span
	i = skipSpace(raw, i+1)
	for more, seen := at(raw, i) != '}', false; more; seen = true {
		nameEnd, err := skipString(raw, i)
		if err != nil {
			return nil, err
		}
		match := nameIs(raw[i:nameEnd], key)
		if only && (seen || !match) {
			return nil, errDeclined
		}
		if i, err = expect(raw, nameEnd, ':'); err != nil {
			return nil, err
		}
		switch {
		case !match:
			i, err = skipValue(raw, i, 1)
		case hasLiteral(raw, i, "null"):
			elems, i = nil, i+len("null")
		case at(raw, i) == '[':
			if elems == nil {
				elems = []span{} // [] is an empty array, not null
			}
			elems = elems[:0]
			i, err = elements(raw, i, func(start int) (int, error) {
				end, err := elem(raw, start)
				elems = append(elems, span{start, end})
				return end, err
			})
		default:
			err = fmt.Errorf("%q is not an array", key)
		}
		if err == nil {
			i, more, err = next(raw, i, '}')
		}
		if err != nil {
			return nil, err
		}
	}
	return elems, nil
}

// elements calls elem on the start of each element of the array
// opening at raw[i] — elem returns the index past that element — and
// returns the index past the array.
func elements(raw []byte, i int, elem func(i int) (int, error)) (int, error) {
	if at(raw, i) != '[' {
		return 0, errDeclined
	}
	if i = skipSpace(raw, i+1); at(raw, i) == ']' {
		return i + 1, nil
	}
	for more := true; more; {
		end, err := elem(i)
		if err != nil {
			return 0, err
		}
		if i, more, err = next(raw, end, ']'); err != nil {
			return 0, err
		}
	}
	return i, nil
}

// skipElem validates any JSON value as an array element of a top-level
// object member.
func skipElem(raw []byte, i int) (int, error) { return skipValue(raw, i, 2) }

// StringArrays decodes raw as
//
//	dec := json.NewDecoder(bytes.NewReader(raw))
//	dec.DisallowUnknownFields()
//	dec.Decode(&struct{ F [][]string }{})
//
// does with F named key, for the bodies whose decoding needs nothing
// from the library but its string unquoting: ok is false, and the
// caller must ask the library, for every body the library rejects and
// for some it accepts — a member other than key, key twice, a session
// or host of another JSON type. A session that is null decodes to nil,
// [] to an empty non-nil slice, a null host to "".
//
// It is ArrayField's one pass, each session decoded where ArrayField
// would validate it. The hosts are one allocation: sessions are capped
// windows onto a shared slice. A host without escapes or non-ASCII
// bytes is a substring of one string(raw); the rest are unquoted by
// encoding/json itself, which replaces invalid UTF-8 and lone
// surrogates.
func StringArrays(raw []byte, key string) (_ [][]string, ok bool) {
	// Every host but a null one is a string, so the quotes bound their
	// count (and make the slice non-nil, as an empty session must be).
	d := hostsDecoder{all: make([]string, 0, bytes.Count(raw, []byte{'"'})/2)}
	spans, err := arrayField(raw, key, true, d.session)
	if err != nil || spans == nil {
		return nil, err == nil
	}
	out := make([][]string, len(spans))
	for j, b := range d.bounds {
		if b.start >= 0 {
			out[j] = d.all[b.start:b.end:b.end]
		}
	}
	return out, true
}

// hostsDecoder is StringArrays' state: the body as one string once a
// host needs it, every session's hosts end to end, and each session's
// window onto them (start -1 for a null session).
type hostsDecoder struct {
	body   string
	all    []string
	bounds []span
}

// session decodes the session starting at raw[i], null or an array of
// strings and nulls, and returns the index past it.
func (d *hostsDecoder) session(raw []byte, i int) (int, error) {
	if hasLiteral(raw, i, "null") {
		d.bounds = append(d.bounds, span{-1, -1})
		return i + len("null"), nil
	}
	start := len(d.all)
	i, err := elements(raw, i, func(i int) (int, error) {
		h, end, err := d.host(raw, i)
		d.all = append(d.all, h)
		return end, err
	})
	d.bounds = append(d.bounds, span{start, len(d.all)})
	return i, err
}

// host decodes the host starting at raw[i], a string or null, and
// returns the index past it.
func (d *hostsDecoder) host(raw []byte, i int) (string, int, error) {
	if hasLiteral(raw, i, "null") {
		return "", i + len("null"), nil
	}
	return text(raw, i, &d.body)
}

// text decodes the string starting at raw[i] and returns the index past
// it. A plain string is a substring of *body, string(raw) made on first
// use; any other is what encoding/json makes of it.
func text(raw []byte, i int, body *string) (string, int, error) {
	end, plain, err := scanString(raw, i)
	if err != nil || !plain {
		var s string
		if err == nil {
			err = json.Unmarshal(raw[i:end], &s)
		}
		return s, end, err
	}
	if *body == "" {
		*body = string(raw)
	}
	return (*body)[i+1 : end-1], end, nil
}

// next steps over what follows a member of a container closed by end:
// a comma (more is true, the index that of the next member) or end
// (the index past it).
func next(raw []byte, i int, end byte) (_ int, more bool, _ error) {
	switch i = skipSpace(raw, i); at(raw, i) {
	case ',':
		return skipSpace(raw, i+1), true, nil
	case end:
		return i + 1, false, nil
	}
	return 0, false, syntaxError(raw, i)
}

// skipValue validates the JSON value starting at raw[i], already nested
// inside depth containers, and returns the index past it. It keeps its
// own stack of open containers, so hostile nesting costs a byte per
// level up to the limit and never a stack frame.
func skipValue(raw []byte, i, depth int) (int, error) {
	open := make([]byte, 0, 32) // '{' or '[' per container opened here
	for {
		// raw[i] starts a member of the innermost container, or the value.
		var err error
		if n := len(open); n > 0 && open[n-1] == '{' {
			if i, err = skipString(raw, i); err == nil {
				i, err = expect(raw, i, ':')
			}
			if err != nil {
				return 0, err
			}
		}
		switch c := at(raw, i); {
		case c == '{' || c == '[':
			if depth+len(open) >= maxJSONDepth {
				return 0, errors.New("exceeded max depth")
			}
			if i = skipSpace(raw, i+1); at(raw, i) != c+2 { // '}' is '{'+2, ']' is '['+2
				open = append(open, c)
				continue
			}
			i++
		case c == '"':
			i, err = skipString(raw, i)
		case c == '-' || '0' <= c && c <= '9':
			i, err = skipNumber(raw, i)
		case hasLiteral(raw, i, "true"), hasLiteral(raw, i, "null"):
			i += 4
		case hasLiteral(raw, i, "false"):
			i += 5
		default:
			err = syntaxError(raw, i)
		}
		// A value just ended: close containers until one goes on.
		for more := false; !more && err == nil; {
			if len(open) == 0 {
				return i, nil
			}
			if i, more, err = next(raw, i, open[len(open)-1]+2); !more {
				open = open[:len(open)-1]
			}
		}
		if err != nil {
			return 0, err
		}
	}
}

// expect skips white space, requires c, and skips white space again.
func expect(raw []byte, i int, c byte) (int, error) {
	if i = skipSpace(raw, i); at(raw, i) != c {
		return 0, syntaxError(raw, i)
	}
	return skipSpace(raw, i+1), nil
}

// skipString validates the string opening at raw[i] and returns the
// index past its closing quote.
func skipString(raw []byte, i int) (int, error) {
	end, _, err := scanString(raw, i)
	return end, err
}

// strClass classes string content bytes: 1 for the backslash and the
// control characters, which only the byte-wise scan takes, 2 for
// non-ASCII bytes, 0 for the rest.
var strClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c < ' ' || c == '\\':
			t[c] = 1
		case c >= utf8.RuneSelf:
			t[c] = 2
		}
	}
	return t
}()

// scanString is skipString that also reports whether the string is
// plain — no escapes, no non-ASCII bytes — so that its content is its
// value. A string without a backslash or control character, most of
// them, costs one IndexByte and one branch-free pass.
func scanString(raw []byte, i int) (end int, plain bool, err error) {
	if at(raw, i) != '"' {
		return 0, false, syntaxError(raw, i)
	}
	if q := bytes.IndexByte(raw[i+1:], '"'); q >= 0 {
		var class uint8
		for _, c := range raw[i+1 : i+1+q] {
			class |= strClass[c]
		}
		if class&1 == 0 {
			return i + q + 2, class == 0, nil
		}
	}
	for i++; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '"':
			return i + 1, false, nil
		case c < ' ':
			return 0, false, syntaxError(raw, i)
		case c == '\\':
			i++
			if e := at(raw, i); e == 'u' {
				for end := i + 4; i < end; {
					i++
					if c := at(raw, i); !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f') {
						return 0, false, syntaxError(raw, i)
					}
				}
			} else if strings.IndexByte(`"\/bfnrt`, e) < 0 {
				return 0, false, syntaxError(raw, i)
			}
		}
	}
	return 0, false, syntaxError(raw, i)
}

// skipNumber validates the number at raw[i] by the JSON grammar and
// returns the index past it; what may follow is the caller's business.
func skipNumber(raw []byte, i int) (int, error) {
	if raw[i] == '-' {
		i++
	}
	ok := true
	if at(raw, i) == '0' {
		i++
	} else {
		i, ok = digits(raw, i, ok)
	}
	if at(raw, i) == '.' {
		i, ok = digits(raw, i+1, ok)
	}
	if at(raw, i)|0x20 == 'e' {
		if i++; at(raw, i) == '+' || at(raw, i) == '-' {
			i++
		}
		i, ok = digits(raw, i, ok)
	}
	if !ok {
		return 0, syntaxError(raw, i)
	}
	return i, nil
}

// digits skips the digits at raw[i]; ok stays true if there was one.
func digits(raw []byte, i int, ok bool) (int, bool) {
	start := i
	for i < len(raw) && '0' <= raw[i] && raw[i] <= '9' {
		i++
	}
	return i, ok && i > start
}

// at is raw[i], or 0 — which no rule accepts — past the end.
func at(raw []byte, i int) byte {
	if i < len(raw) {
		return raw[i]
	}
	return 0
}

func syntaxError(raw []byte, i int) error {
	if i >= len(raw) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", raw[i], i)
}

func skipSpace(raw []byte, i int) int {
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\n' || raw[i] == '\t' || raw[i] == '\r') {
		i++
	}
	return i
}

func hasLiteral(raw []byte, i int, lit string) bool {
	return len(raw)-i >= len(lit) && string(raw[i:i+len(lit)]) == lit
}

// nameIs reports whether the validated JSON string quoted names key the
// way encoding/json matches an object member to a struct field:
// unescaped, then compared under Unicode case folding.
func nameIs(quoted []byte, key string) bool {
	name := quoted[1 : len(quoted)-1]
	for _, c := range name {
		if c == '\\' || c >= utf8.RuneSelf {
			// Escapes, and the non-ASCII letters that fold to ASCII ones
			// (U+017F to s, U+212A to k): let the library unquote it.
			var s string
			return json.Unmarshal(quoted, &s) == nil && strings.EqualFold(s, key)
		}
	}
	return len(name) == len(key) && strings.EqualFold(string(name), key)
}
