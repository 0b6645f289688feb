package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hostprof/internal/jsonscan"
)

// checkProfileBatchDecode requires decodeProfileBatch to answer body
// exactly as decodeJSON into a ProfileBatchRequest does: the same
// outcome, status and error body, and on success the same sessions,
// nil and empty told apart at both levels.
func checkProfileBatchDecode(t *testing.T, body []byte) {
	t.Helper()
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/profile/batch", bytes.NewReader(body))
	}
	wantRec := httptest.NewRecorder()
	var req ProfileBatchRequest
	wantOK := decodeJSON(wantRec, post(), &req)
	gotRec := httptest.NewRecorder()
	got, gotOK := decodeProfileBatch(gotRec, post())
	if gotOK != wantOK || gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
		t.Fatalf("%.200q: decoded %v, %d %q; decodeJSON %v, %d %q", body,
			gotOK, gotRec.Code, gotRec.Body.String(), wantOK, wantRec.Code, wantRec.Body.String())
	}
	if gotOK && !reflect.DeepEqual(got, req.Sessions) {
		t.Fatalf("%.200q: sessions %#v, decodeJSON %#v", body, got, req.Sessions)
	}
}

var profileBatchSeeds = []string{
	`{"sessions":[["a.example","b.example"],["c.example"]]}`,
	` { "sessions" : [ [ "a.example" , "b.example" ] ,[ "c.example"] ] } `,
	`{"sessions":[]}`, `{"sessions":[[]]}`, `{"sessions":[[],["a.example"],[]]}`, `{}`, ` { } `,
	// null at every level.
	`null`, `{"sessions":null}`, `{"sessions":[null]}`, `{"sessions":[null,["a.example"],null]}`,
	`{"sessions":[[null]]}`, `{"sessions":[["a.example",null,"b.example"]]}`, `{"sessions":[nul]}`, `{"sessions":[[nullx]]}`,
	// Escapes, surrogates, invalid UTF-8.
	`{"sessions":[["a\"b.example","c\\d","\/e","a.example","\t"]]}`,
	`{"sessions":[["\ud800"],["😀.example"],["\udc00\ud800x"]]}`,
	"{\"sessions\":[[\"\xff\xfe.example\",\"caf\xc3\xa9.example\",\"\xc3\"]]}",
	"{\"sessions\":[[\"a\x00b\"]]}", `{"sessions":[["\q"]]}`, `{"sessions":[["\u12G4"]]}`,
	// Which member is the field: case folding, escaped and non-ASCII names.
	`{"Sessions":[["a.example"]]}`, `{"SESSIONS":[["a.example"]]}`, `{"sessions":[["a.example"]]}`,
	"{\"ſeſſionſ\":[[\"a.example\"]]}", "{\"Kessions\":[[\"a.example\"]]}",
	// Duplicate keys: the second decode reuses the first's slices.
	`{"sessions":[["a.example","b.example"]],"sessions":[["c.example",null]]}`,
	`{"sessions":[["a.example"]],"sessions":null}`, `{"sessions":null,"sessions":[["a.example"]]}`,
	`{"sessions":[["a.example"],["b.example"]],"SESSIONS":[[]]}`,
	// Unknown fields, before and after.
	`{"sessions":[],"x":1}`, `{"x":1,"sessions":[["a.example"]]}`, `{"sessionss":[["a.example"]]}`, `{"hosts":["a.example"]}`,
	// Wrong types at every level.
	`{"sessions":[["a.example",1]]}`, `{"sessions":[["a.example",true]]}`, `{"sessions":[["a.example",["b"]]]}`,
	`{"sessions":[{"hosts":["a.example"]}]}`, `{"sessions":["a.example"]}`, `{"sessions":[7]}`, `{"sessions":{}}`,
	`{"sessions":"[]"}`, `[]`, `"sessions"`, `7`, `true`,
	// Broken structure.
	`{"sessions":[["a.example"]`, `{"sessions":[["a.example"],]}`, `{"sessions":[,["a.example"]]}`,
	`{"sessions":[["a.example" "b.example"]]}`, `{"sessions":[["a.example",]]}`, `{"sessions" [[]]}`,
	`{sessions:[[]]}`, `{"sessions":[[]],}`, `{`, ``, ` `, "\ufeff{}",
	// Trailing bytes after the first value.
	`{"sessions":[["a.example"]]} trailing`, `{"sessions":[["a.example"]]}{"sessions":[]}`,
	`{"sessions":[["a.example"]]}}`, "{\"sessions\":[[\"a.example\"]]}\n", `null{"x":1}`, `nullx`,
}

// TestProfileBatchDecodeMatchesDecodeJSON runs the fuzz seeds as a plain
// test, plus bodies past the size limit: one whose first value ends
// inside it (the decoder never reads far enough to see the excess) and
// one that ends after it (413).
func TestProfileBatchDecodeMatchesDecodeJSON(t *testing.T) {
	for _, seed := range profileBatchSeeds {
		checkProfileBatchDecode(t, []byte(seed))
	}
	pad := strings.Repeat(" ", maxBodyBytes)
	checkProfileBatchDecode(t, []byte(`{"sessions":[["a.example"]]}`+pad))
	checkProfileBatchDecode(t, []byte(`{"sessions":[["a.example"]]`+pad+`}`))
	checkProfileBatchDecode(t, []byte(`{"sessions":[["a.example"]],"x":`+pad+`1}`))
}

// TestProfileBatchDecodeScansBatches pins that the batches clients send
// take the scanner, not the library: encoding/json's output for
// ordinary, escaped, null and empty sessions.
func TestProfileBatchDecodeScansBatches(t *testing.T) {
	var batch [][]string
	for i := 0; i < 300; i++ {
		batch = append(batch, []string{fmt.Sprintf("h%d.example", i), "a.example", "ad&track<er>.example", "ünï.example"})
	}
	batch = append(batch, nil, []string{}, []string{"", `q"uote\.example`})
	body, _ := json.Marshal(ProfileBatchRequest{Sessions: batch})
	for _, raw := range [][]byte{body, []byte(`{"SESSIONS": [ ["a.example", null] , null ] }`)} {
		if _, ok := jsonscan.StringArrays(raw, "sessions"); !ok {
			t.Errorf("%.80q: left to encoding/json", raw)
		}
		checkProfileBatchDecode(t, raw)
	}
}

// FuzzProfileBatchDecode holds the shard's /v1/profile/batch decode to
// decodeJSON into a ProfileBatchRequest on arbitrary bodies: status,
// error body and sessions.
func FuzzProfileBatchDecode(f *testing.F) {
	for _, seed := range profileBatchSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkProfileBatchDecode(t, body)
	})
}

// BenchmarkProfileBatchDecode times the shard's decode of a bench-shaped
// body — 512 sessions of 12 hosts — against decodeJSON's.
func BenchmarkProfileBatchDecode(b *testing.B) {
	batch := make([][]string, 512)
	for i := range batch {
		for j := 0; j < 12; j++ {
			batch[i] = append(batch[i], fmt.Sprintf("host-%d-%d.example.com", i%97, j))
		}
	}
	body, _ := json.Marshal(ProfileBatchRequest{Sessions: batch})
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/profile/batch", bytes.NewReader(body))
	}
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decodeProfileBatch(httptest.NewRecorder(), post())
		}
	})
	b.Run("decodeJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ProfileBatchRequest
			decodeJSON(httptest.NewRecorder(), post(), &req)
		}
	})
}
