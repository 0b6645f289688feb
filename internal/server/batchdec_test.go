package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hostprof/internal/jsonscan"
	"hostprof/internal/obs/httpmw"
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

// libraryImport is the decode POST /v1/import made before the scanner:
// encoding/json straight off the capped body, unknown fields ignored.
func libraryImport(w http.ResponseWriter, r *http.Request) (ImportRequest, bool) {
	var req ImportRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxImportBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpmw.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return req, false
		}
		httpmw.WriteError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return req, false
	}
	return req, true
}

// checkImportDecode requires decodeImport to answer body exactly as
// libraryImport does: the same outcome, status and error body, and on
// success the same request, nil and empty told apart.
func checkImportDecode(t *testing.T, body []byte) {
	t.Helper()
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/import", bytes.NewReader(body))
	}
	wantRec := httptest.NewRecorder()
	want, wantOK := libraryImport(wantRec, post())
	gotRec := httptest.NewRecorder()
	got, gotOK := decodeImport(gotRec, post())
	if gotOK != wantOK || gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
		t.Fatalf("%.200q: decoded %v, %d %q; library %v, %d %q", body,
			gotOK, gotRec.Code, gotRec.Body.String(), wantOK, wantRec.Code, wantRec.Body.String())
	}
	if gotOK && !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q: request %#v, library %#v", body, got, want)
	}
}

var importSeeds = []string{
	`{"visits":[{"user":1,"t":2,"h":"a.example"},{"user":3,"t":4,"h":"b.example"}]}`,
	`{"reset":[1,2,3],"visits":[{"user":1,"t":2,"h":"a.example"}]}`,
	` { "reset" : [ 1 , -2 ] , "visits" : [ { "h" : "a.example" , "t" : 2 , "user" : 1 } ] } `,
	`{"reset":[7]}`, `{"visits":[]}`, `{"reset":[]}`, `{}`, `{"visits":[{}]}`, `{"visits":[{"h":"a.example"}]}`,
	// Names in another case, escaped and non-ASCII, and repeated.
	`{"visits":[{"User":1,"t":2,"h":"a.example"}]}`, `{"visits":[{"user":1,"t":2,"H":"a.example"}]}`,
	`{"Visits":[{"user":1,"t":2,"h":"a.example"}],"RESET":[1]}`, `{"visits":[{"\u0075ser":1}]}`,
	"{\"reſet\":[1]}", `{"visits":[{"user":1,"user":2,"h":"a.example"}]}`,
	`{"visits":[{"user":1,"h":"a.example","h":"b.example"}]}`, `{"reset":[1],"reset":[2]}`,
	`{"visits":[{"user":1}],"visits":[{"t":2}]}`, `{"reset":[1],"Reset":[2,3]}`,
	// Hosts: escaped, non-ASCII, invalid UTF-8, lone surrogates, bad escapes.
	`{"visits":[{"h":"a\"b.example"},{"h":"ad\u0026track\u003cer\u003e.example"},{"h":"\/c\\d"}]}`,
	`{"visits":[{"h":"ünï.example"},{"h":"😀.example"},{"h":"\ud800"}]}`,
	"{\"visits\":[{\"h\":\"\xff\xfe.example\"},{\"h\":\"caf\xc3\xa9\"},{\"h\":\"\xc3\"}]}",
	"{\"visits\":[{\"h\":\"a\x00b\"}]}", `{"visits":[{"h":"\q"}]}`, `{"visits":[{"h":"\u12G4"}]}`,
	// Numbers: exponent, fraction, negative zero, leading zeros, the int64 edges and past them.
	`{"visits":[{"user":1e3,"t":2,"h":"a.example"}]}`, `{"visits":[{"user":1,"t":1.5,"h":"a.example"}]}`,
	`{"visits":[{"user":-0,"t":-0,"h":"a.example"}]}`, `{"reset":[-0,0,1E2]}`, `{"reset":[01]}`, `{"reset":[-]}`,
	`{"visits":[{"t":9223372036854775807},{"t":-9223372036854775808}]}`,
	`{"visits":[{"t":9223372036854775808}]}`, `{"visits":[{"t":-9223372036854775809}]}`,
	`{"reset":[9223372036854775808]}`, `{"reset":[2147483648,-2147483649]}`, `{"visits":[{"user":99999999999999999999}]}`,
	// null at every level.
	`null`, `{"reset":null}`, `{"visits":null}`, `{"visits":[null]}`, `{"reset":[null]}`,
	`{"visits":[{"user":null,"t":2,"h":"a.example"}]}`, `{"visits":[{"user":1,"t":null,"h":"a.example"}]}`,
	`{"visits":[{"user":1,"t":2,"h":null}]}`,
	// Unknown members and other types.
	`{"visits":[{"user":1,"t":2,"h":"a.example","x":1}]}`, `{"x":1,"visits":[]}`, `{"visits":[],"x":{"y":[1]}}`,
	`{"visits":[{"user":"1"}]}`, `{"visits":[{"h":7}]}`, `{"visits":{}}`, `{"visits":[[]]}`, `{"reset":["1"]}`,
	`{"reset":{}}`, `{"reset":1}`, `{"visits":[{"user":true}]}`, `[]`, `"visits"`, `7`, `true`,
	// Broken structure.
	`{"visits":[{"user":1}`, `{"visits":[{"user":1},]}`, `{"visits":[,{"user":1}]}`, `{"visits":[{"user":1,}]}`,
	`{"visits":[{"user" 1}]}`, `{"visits":[{"user":1 "t":2}]}`, `{"reset":[1 2]}`, `{visits:[]}`, `{"visits":[]`,
	`{`, ``, ` `, "\ufeff{}",
	// Bytes after the object.
	`{"visits":[{"user":1,"t":2,"h":"a.example"}]} trailing`, `{"reset":[1]}{"reset":[2]}`, `{"visits":[]}}`,
	"{\"visits\":[]}\n", `null{"x":1}`, `{}x`,
}

// TestImportDecodeMatchesLibrary runs the fuzz seeds as a plain test,
// plus bodies past the size limit: one whose first value is complete
// inside it (the library never reads far enough to see the excess) and
// two that end after it (413).
func TestImportDecodeMatchesLibrary(t *testing.T) {
	for _, seed := range importSeeds {
		checkImportDecode(t, []byte(seed))
	}
	pad := strings.Repeat(" ", maxImportBody)
	checkImportDecode(t, []byte(`{"visits":[{"user":1,"t":2,"h":"a.example"}]}`+pad))
	checkImportDecode(t, []byte(`{"visits":[{"user":1,"t":2,"h":"a.example"}]`+pad+`}`))
	checkImportDecode(t, []byte(`{"reset":[1],"x":`+pad+`1}`))
}

// importBody is one chunk of n visits as the import producers write
// it: json.Marshal of an ImportRequest.
func importBody(n int) []byte {
	visits := make([]WireVisit, n)
	for i := range visits {
		visits[i] = WireVisit{User: i % 97, Time: 1_700_000_000 + int64(i), Host: fmt.Sprintf("host-%d.example.com", i%389)}
	}
	visits[1].Host, visits[2].Host = "ad&track<er>.example", "ünï.example"
	body, _ := json.Marshal(ImportRequest{Reset: []int{3, 5}, Visits: visits})
	return body
}

// TestImportDecodeScansBodies pins that the bodies the import producers
// send take the scanner, not the library.
func TestImportDecodeScansBodies(t *testing.T) {
	for _, raw := range [][]byte{importBody(300), []byte(`{"RESET": [ 1 ] , "visits" : [ { "h" : "a.example" } ] }`)} {
		if _, _, ok := jsonscan.Import(raw); !ok {
			t.Errorf("%.80q: left to encoding/json", raw)
		}
		checkImportDecode(t, raw)
	}
}

// FuzzImportDecode holds the shard's /v1/import decode to the library's
// on arbitrary bodies: status, error body and request.
func FuzzImportDecode(f *testing.F) {
	for _, seed := range importSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkImportDecode(t, body)
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

// BenchmarkImportDecode times the shard's decode of one import chunk as
// the bench harness sends them — 4 096 visits — against the library's.
func BenchmarkImportDecode(b *testing.B) {
	body := importBody(4096)
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/import", bytes.NewReader(body))
	}
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			decodeImport(httptest.NewRecorder(), post())
		}
	})
	b.Run("library", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			libraryImport(httptest.NewRecorder(), post())
		}
	})
}
