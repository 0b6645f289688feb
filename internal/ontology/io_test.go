package ontology

import (
	"bytes"
	"testing"
)

func TestOntologyJSONLRoundTrip(t *testing.T) {
	tax := NewTaxonomy()
	o := New(tax)
	v1 := tax.NewVector()
	v1[3], v1[100] = 0.8, 0.25
	o.Add("b.example", v1)
	v2 := tax.NewVector()
	v2[327] = 1
	o.Add("a.example", v2)

	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(tax, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len = %d", got.Len())
	}
	gv, ok := got.Lookup("b.example")
	if !ok || gv[3] != 0.8 || gv[100] != 0.25 {
		t.Fatalf("b.example: ok %v, weights %v and %v", ok, gv[3], gv[100])
	}
	gv, _ = got.Lookup("a.example")
	if gv[327] != 1 {
		t.Fatal("a.example lost weight")
	}
}

func TestOntologyJSONLDeterministicOrder(t *testing.T) {
	tax := NewTaxonomy()
	o := New(tax)
	for _, h := range []string{"z.example", "a.example"} {
		v := tax.NewVector()
		v[0] = 0.5
		o.Add(h, v)
	}
	var b1, b2 bytes.Buffer
	if err := o.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("output not deterministic")
	}
	if bytes.Index(b1.Bytes(), []byte("a.example")) > bytes.Index(b1.Bytes(), []byte("z.example")) {
		t.Fatal("hosts not sorted")
	}
}

func TestOntologyReadJSONLErrors(t *testing.T) {
	tax := NewTaxonomy()
	if _, err := ReadJSONL(tax, bytes.NewReader([]byte("{bad\n"))); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadJSONL(tax, bytes.NewReader([]byte(`{"host":"h","cats":[1],"weights":[0.5,0.6]}`+"\n"))); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := ReadJSONL(tax, bytes.NewReader([]byte(`{"host":"h","cats":[999],"weights":[0.5]}`+"\n"))); err == nil {
		t.Fatal("expected range error")
	}
}
