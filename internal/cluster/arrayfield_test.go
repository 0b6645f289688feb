package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hostprof/internal/jsonscan"
)

// maxJSONDepth is encoding/json's nesting limit, which the scanner
// shares.
const maxJSONDepth = 10000

// arrayField is the gateway's body scanner under test.
var arrayField = jsonscan.ArrayField

// decodeSessions is arrayField's oracle: what the gateway did before it
// scanned for boundaries.
func decodeSessions(raw []byte) ([]json.RawMessage, error) {
	var req struct{ Sessions []json.RawMessage }
	err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req)
	return req.Sessions, err
}

// checkArrayField requires arrayField to accept or reject raw as the
// decoder does, and on acceptance to return the decoder's elements byte
// for byte — as views into raw, not copies.
func checkArrayField(t *testing.T, raw []byte) {
	t.Helper()
	want, wantErr := decodeSessions(raw)
	got, err := arrayField(raw, "sessions")
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: arrayField error %v, decoder error %v", raw, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d elements, decoder %d", raw, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%q: element %d is %q, decoder %q", raw, i, got[i], want[i])
		}
		if len(got[i]) != cap(got[i]) || len(got[i]) > 0 && !within(got[i], raw) {
			t.Fatalf("%q: element %d is not a capped sub-slice of the input", raw, i)
		}
	}
}

// within reports whether sub's first byte lies inside of's storage.
func within(sub, of []byte) bool {
	for i := range of {
		if &of[i] == &sub[0] {
			return true
		}
	}
	return false
}

var arrayFieldSeeds = []string{
	// TestGatewayBatchRejectsMalformedSessions' bodies.
	`{"sessions":[["a.example"],[1,2]]}`,
	`{"sessions":[["a.example"],{"hosts":["b.example"]}]}`,
	`{"sessions":["a.example"]}`,
	`{"sessions":[["a.example",["nested.example"]]]}`,
	`{"sessions":[["a.example",true]]}`,
	`{"sessions":[7]}`,
	`{"sessions":[["a.example"]`,
	`{"sessions":[]}`,
	`{"sessions":[ [ "a.example" , "b\"[1]\\.example" ] , null , [ ] , [null, "c.example"] ]}`,
	// Which member is the field: duplicates (last wins), case, escapes,
	// the two non-ASCII letters that fold to ASCII ones.
	`{"sessions":[1],"sessions":[2,3]}`,
	`{"sessions":[1],"sessions":null}`,
	`{"sessions":null,"SESSIONS":[4]}`,
	`{"sessions":[1],"sessions":5}`,
	`{"Sessions":[1]}`, `{"sEsSiOnS":[[]]}`, `{"session":[1]}`, `{"sessionss":[1]}`,
	`{"se\u0073sions":["x"]}`, `{"\u0053essions":[{}]}`, `{"se\x73sions":[1]}`, `{"sessions\u0000":[1]}`,
	"{\"\u017fe\u017f\u017fion\u017f\":[1]}", "{\"\u212Aessions\":[1]}", "{\"sessions\xff\":[1]}",
	// null and the wrong type at each level.
	`null`, ` null `, `nullx`, `nul`, `{"sessions":null}`, `{"sessions":[null]}`, `{"sessions":nullx}`,
	`[]`, `"sessions"`, `7`, `true`, `{"sessions":{}}`, `{"sessions":"[]"}`, `{"sessions":false}`,
	// Strings that look like structure, bad strings.
	`{"a":"]}\",","sessions":["]}\","]}`,
	"{\"sessions\":[\"a\tb\"]}", `{"sessions":["\q"]}`, `{"sessions":["\u12G4"]}`, `{"sessions":["\u00`, "{\"sessions\":[\"\x19\\u0041\"]}",
	"{\"sessions\":[\"\xff\xfe\"]}", `{"sessions":["unterminated]}`, "{\"sessions\":[\"\\u00\x11\x19\"]}",
	// Numbers and literals by the grammar.
	`{"sessions":[0,-0,1.5,1e9,1E+9,2e-7,-12.25e+3]}`,
	`{"sessions":[01]}`, `{"sessions":[1.]}`, `{"sessions":[.5]}`, `{"sessions":[-]}`, `{"sessions":[1e]}`, `{"sessions":[1e+]}`, `{"sessions":[+1]}`,
	`{"sessions":[tru]}`, `{"sessions":[truee]}`, `{"sessions":[True]}`, `{"sessions":[false,true,null]}`, `{"x":-`,
	// Other members are validated too; structure errors.
	`{"a":{"b":[1,{"c":null}]},"sessions":[[1]],"z":"y"}`, `{"a":[1,],"sessions":[]}`, `{"a":{"b"},"sessions":[]}`,
	`{"sessions":[1,]}`, `{"sessions":[,1]}`, `{"sessions":[1 2]}`, `{"sessions":[1]`, `{"sessions":[1]]`, `{"sessions":[}`, `{"sessions":[{]}]}`,
	`{"sessions" [1]}`, `{sessions:[1]}`, `{"sessions":[1],}`, `{,}`, `{}`, ` { } `, `{`, ``, ` `, "\ufeff{}",
	// Whatever follows the first value is ignored.
	`{"sessions":[1]} trailing`, `{"sessions":[1]}{"sessions":[2]}`, `{"sessions":[1]}}`, "{\"sessions\":[1]}\n",
	"\r\n\t {\t\"sessions\"\r:\n[ 1 ,\t2 ]\n}",
	// Nesting: well inside the limit, at it, one past it.
	`{"sessions":[` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `]}`,
	`{"sessions":[` + strings.Repeat("[", maxJSONDepth-2) + strings.Repeat("]", maxJSONDepth-2) + `]}`,
	`{"sessions":[` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `]}`,
	`{"a":` + strings.Repeat(`{"a":`, maxJSONDepth-1) + `1` + strings.Repeat("}", maxJSONDepth) + `,"sessions":[]}`,
	`{"a":` + strings.Repeat(`{"a":`, maxJSONDepth) + `1` + strings.Repeat("}", maxJSONDepth+1) + `,"sessions":[]}`,
	strings.Repeat("[", 1<<16),
}

// TestArrayFieldMatchesDecoder runs the fuzz target's seed corpus as a
// plain test, plus a body a stack-recursive scanner could not survive.
func TestArrayFieldMatchesDecoder(t *testing.T) {
	for _, seed := range arrayFieldSeeds {
		checkArrayField(t, []byte(seed))
	}
	deep := []byte(`{"sessions":[` + strings.Repeat("[", maxProxyBody))
	if _, err := arrayField(deep, "sessions"); err == nil {
		t.Fatal("4 MiB of '[' accepted")
	}
	// The key is a parameter: the shard-answer call site asks for another.
	got, err := arrayField([]byte(`{"sessions":[1],"profiles":[{"error":"x"},{}]}`+"\n"), "profiles")
	if err != nil || len(got) != 2 || string(got[0]) != `{"error":"x"}` || string(got[1]) != `{}` {
		t.Fatalf("profiles: %q, %v", got, err)
	}
}

// FuzzArrayField is the scanner's differential fuzz: for arbitrary
// bytes, accept/reject and every element's bytes equal decoding into a
// struct with one []json.RawMessage field.
func FuzzArrayField(f *testing.F) {
	for _, seed := range arrayFieldSeeds {
		if len(seed) < 4096 { // the deep-nesting seeds run in the plain test
			f.Add([]byte(seed))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkArrayField(t, raw)
	})
}
