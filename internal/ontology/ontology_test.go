package ontology

import (
	"strings"
	"testing"
)

func TestOntologyAddLookup(t *testing.T) {
	tax := NewTaxonomy()
	o := New(tax)
	v := tax.NewVector()
	v[5] = 0.8
	o.Add("espn.com", v)
	got, ok := o.Lookup("espn.com")
	if !ok || got[5] != 0.8 {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	if _, ok := o.Lookup("unknown.example"); ok {
		t.Fatal("unknown host reported labelled")
	}
	if !o.Covered("espn.com") || o.Covered("x.example") {
		t.Fatal("Covered wrong")
	}
}

func TestOntologyAddClamps(t *testing.T) {
	tax := NewTaxonomy()
	o := New(tax)
	v := tax.NewVector()
	v[0] = 4.2
	o.Add("h.example", v)
	got, _ := o.Lookup("h.example")
	if got[0] != 1 {
		t.Fatalf("Add did not clamp: %v", got[0])
	}
}

func TestOntologyCoverage(t *testing.T) {
	tax := NewTaxonomy()
	o := New(tax)
	o.Add("a.example", tax.NewVector())
	universe := []string{"a.example", "b.example", "c.example", "d.example"}
	if got := o.Coverage(universe); got != 0.25 {
		t.Fatalf("coverage = %v, want 0.25", got)
	}
	if got := o.Coverage(nil); got != 0 {
		t.Fatalf("empty-universe coverage = %v", got)
	}
}

func TestOntologyHostsSorted(t *testing.T) {
	tax := NewTaxonomy()
	o := New(tax)
	for _, h := range []string{"z.example", "a.example", "m.example"} {
		o.Add(h, tax.NewVector())
	}
	hs := o.Hosts()
	if len(hs) != 3 || hs[0] != "a.example" || hs[2] != "z.example" {
		t.Fatalf("Hosts = %v", hs)
	}
	if o.Len() != 3 {
		t.Fatalf("Len = %d", o.Len())
	}
}

func TestBlocklistBasic(t *testing.T) {
	b := NewBlocklist()
	b.Add("Ads.Example.COM")
	if !b.Contains("ads.example.com") || !b.Contains("ADS.EXAMPLE.COM") {
		t.Fatal("case-insensitive contains failed")
	}
	if b.Contains("example.com") {
		t.Fatal("false positive")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestBlocklistParseHostsFormat(t *testing.T) {
	src := `# AdAway default blocklist
127.0.0.1 localhost
127.0.0.1 ads.example.com
0.0.0.0 tracker.example.net pixel.example.net
# comment
doubleclick.example   # trailing comment

::1 ipv6host.example
`
	b := NewBlocklist()
	n, err := b.ParseHostsFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"ads.example.com", "tracker.example.net", "pixel.example.net", "doubleclick.example", "ipv6host.example"} {
		if !b.Contains(h) {
			t.Errorf("missing %q", h)
		}
	}
	if b.Contains("localhost") || b.Contains("127.0.0.1") {
		t.Fatal("localhost or IP leaked into blocklist")
	}
	if n != 5 {
		t.Fatalf("added = %d, want 5", n)
	}
}

func TestBlocklistParsePlainFormat(t *testing.T) {
	src := "a.ads.example\nb.ads.example\n"
	b := NewBlocklist()
	if _, err := b.ParseHostsFile(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if !b.Contains("a.ads.example") || !b.Contains("b.ads.example") {
		t.Fatal("plain entries missing")
	}
}

func TestLooksLikeIP(t *testing.T) {
	cases := map[string]bool{
		"127.0.0.1":       true,
		"0.0.0.0":         true,
		"::1":             true,
		"fe80::1":         true,
		"example.com":     false,
		"1.example.com":   false,
		"123.45.67.89.10": false, // 4 dots
	}
	for s, want := range cases {
		if got := looksLikeIP(s); got != want {
			t.Errorf("looksLikeIP(%q) = %v, want %v", s, got, want)
		}
	}
}
