package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"hostprof/internal/jsonscan"
	"hostprof/internal/store"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
)

// serveBody runs one request through h and returns the recorded answer.
func serveBody(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// storeDigest is the whole store as a count and an order-insensitive sum
// that, unlike store.VisitHash alone, also sees which user a visit is
// under.
func storeDigest(b *Backend) (int, uint64) {
	var sum uint64
	vs := b.store.SnapshotTrace().Visits()
	for _, v := range vs {
		sum += store.VisitHash(v) ^ uint64(v.User)*0x9e3779b97f4a7c15
	}
	return len(vs), sum
}

// trim empties b's store once it holds more than a few thousand visits
// or a few MiB of hostnames, so fuzzing runs in bounded memory.
func trim(b *Backend) {
	n, hostBytes := 0, 0
	for _, v := range b.store.SnapshotTrace().Visits() {
		n, hostBytes = n+1, hostBytes+len(v.Host)
	}
	if n > 20000 || hostBytes > 4<<20 {
		b.store.DropUsers(b.store.Users())
	}
}

// userVisits is everything the store holds for user, in stored order.
func userVisits(b *Backend, user int) []trace.Visit {
	vs, _ := b.store.UserVisits(user, 0, 0)
	return vs
}

// exportUser pages one user's history out of h the way a migration does,
// following the from watermark until the total is reached.
func exportUser(t testing.TB, h http.Handler, user int) []WireVisit {
	t.Helper()
	var out []WireVisit
	for {
		rec := serveBody(h, http.MethodGet, fmt.Sprintf("/v1/export?users=%d&from=%d", user, len(out)), nil)
		var resp ExportResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Users) != 1 {
			t.Fatalf("export of user %d: %d %s", user, rec.Code, rec.Body.String())
		}
		out = append(out, resp.Users[0].Visits...)
		if len(out) >= resp.Users[0].Total || len(resp.Users[0].Visits) == 0 {
			return out
		}
	}
}

// TestImportRejectsOversizeHostBeforeReset is the regression for a chunk
// whose last visit carries a hostname past the store's record limit. The
// import used to reset user 1, append user 2's first visit and then
// answer 500; it must answer 400 and change nothing.
func TestImportRejectsOversizeHostBeforeReset(t *testing.T) {
	fx := newBackendFixture(t)
	h := fx.b.Handler()
	seed, _ := json.Marshal(ImportRequest{Visits: []WireVisit{{User: 1, Time: 1, Host: "a.example"}, {User: 1, Time: 2, Host: "b.example"}}})
	if rec := serveBody(h, http.MethodPost, "/v1/import", seed); rec.Code != http.StatusOK {
		t.Fatalf("seeding import: %d %s", rec.Code, rec.Body.String())
	}
	n, sum := storeDigest(fx.b)
	big := strings.Repeat("h", store.MaxHostBytes+1)
	body, _ := json.Marshal(ImportRequest{Reset: []int{1}, Visits: []WireVisit{{User: 2, Time: 1, Host: "c.example"}, {User: 2, Time: 2, Host: big}}})
	rec := serveBody(h, http.MethodPost, "/v1/import", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversize host: %d %s, want 400", rec.Code, rec.Body.String())
	}
	if n2, sum2 := storeDigest(fx.b); n2 != n || sum2 != sum {
		t.Fatalf("a refused import changed the store: %d visits → %d", n, n2)
	}
	if got := len(userVisits(fx.b, 1)); got != 2 {
		t.Fatalf("user 1 holds %d visits after a refused reset, want 2", got)
	}
	// A hostname exactly at the limit is storable.
	body, _ = json.Marshal(ImportRequest{Visits: []WireVisit{{User: 2, Time: 1, Host: big[1:]}}})
	if rec := serveBody(h, http.MethodPost, "/v1/import", body); rec.Code != http.StatusOK {
		t.Fatalf("host of MaxHostBytes: %d %s", rec.Code, rec.Body.String())
	}
}

// TestImportScannerStoresLikeLibrary imports a synthetic population's
// browsing, in chunks of 4 096 visits marshalled as the bench harness
// marshals its seed corpus, through the handler into one backend and
// through the library's decode into another: every chunk must take the
// scanner, and the two stores must hold the same visits in the same
// order.
func TestImportScannerStoresLikeLibrary(t *testing.T) {
	fast, lib := newBackendFixture(t), newBackendFixture(t)
	pop := synth.NewPopulation(fast.u, synth.PopulationConfig{Users: 24, Days: 3, Seed: 17})
	visits := pop.Browse().Visits()
	for lo := 0; lo < len(visits); lo += 4096 {
		chunk := make([]WireVisit, 0, 4096)
		for _, v := range visits[lo:min(lo+4096, len(visits))] {
			chunk = append(chunk, WireVisit{User: v.User, Time: v.Time, Host: v.Host})
		}
		body, _ := json.Marshal(ImportRequest{Visits: chunk})
		if _, _, ok := jsonscan.Import(body); !ok {
			t.Fatalf("chunk at %d left to encoding/json", lo)
		}
		if rec := serveBody(fast.b.Handler(), http.MethodPost, "/v1/import", body); rec.Code != http.StatusOK {
			t.Fatalf("chunk at %d: %d %s", lo, rec.Code, rec.Body.String())
		}
		rec := httptest.NewRecorder()
		if req, ok := libraryImport(rec, httptest.NewRequest(http.MethodPost, "/v1/import", bytes.NewReader(body))); ok {
			lib.b.applyImport(rec, req)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("chunk at %d through the library: %d %s", lo, rec.Code, rec.Body.String())
		}
	}
	if len(visits) <= 4096 {
		t.Fatalf("%d visits make one chunk", len(visits))
	}
	n, sum := storeDigest(fast.b)
	if n2, sum2 := storeDigest(lib.b); n == 0 || n != n2 || sum != sum2 {
		t.Fatalf("scanner stored %d visits (sum %x), library %d (sum %x)", n, sum, n2, sum2)
	}
	for _, u := range fast.b.store.Users() {
		if got, want := userVisits(fast.b, u), userVisits(lib.b, u); !slices.Equal(got, want) {
			t.Fatalf("user %d: scanner stored %d visits, library %d, or another order", u, len(got), len(want))
		}
	}
}

// TestImportPinsNoBody imports a chunk the scanner decodes, its plain
// hosts windows onto one body string, and requires that no hostname the
// store interned shares memory with the request's: a store that kept
// one would keep the whole body alive.
func TestImportPinsNoBody(t *testing.T) {
	fx := newBackendFixture(t)
	body := importBody(500)
	if _, _, ok := jsonscan.Import(body); !ok {
		t.Fatal("chunk left to encoding/json")
	}
	rec := httptest.NewRecorder()
	req, ok := decodeImport(rec, httptest.NewRequest(http.MethodPost, "/v1/import", bytes.NewReader(body)))
	if !ok {
		t.Fatalf("decode: %d %s", rec.Code, rec.Body.String())
	}
	fx.b.applyImport(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("import: %d %s", rec.Code, rec.Body.String())
	}
	stored := map[string]bool{}
	for _, u := range fx.b.store.Users() {
		for _, v := range userVisits(fx.b, u) {
			stored[v.Host] = true
		}
	}
	if len(stored) < 300 {
		t.Fatalf("store interned %d hosts", len(stored))
	}
	for h := range stored {
		p := uintptr(unsafe.Pointer(unsafe.StringData(h)))
		for _, v := range req.Visits {
			q := uintptr(unsafe.Pointer(unsafe.StringData(v.Host)))
			if p < q+uintptr(len(v.Host)) && q < p+uintptr(len(h)) {
				t.Fatalf("interned host %q shares memory with the request's %q", h, v.Host)
			}
		}
	}
}

// FuzzImportStream drives arbitrary bytes through POST /v1/import on a
// fixture backend. Nothing may panic or answer 5xx; a 4xx leaves the
// store as it was; a 200 has reset the listed users and appended exactly
// the request's non-blocklisted visits, in order; and exporting the
// users it touched into a second backend reproduces their histories
// there. The seed corpus under testdata/fuzz holds the chunk with an
// oversize hostname that once answered 500 after a half-applied reset.
func FuzzImportStream(f *testing.F) {
	fx, peer := newBackendFixture(f), newBackendFixture(f)
	h, peerH := fx.b.Handler(), peer.b.Handler()
	for _, seed := range []string{
		`{"visits":[{"user":1,"t":2,"h":"a.example"}]}`,
		`{"reset":[1,1,7],"visits":[{"user":1,"t":3,"h":"b.example"},{"user":2,"t":1,"h":"a.example"},{"user":1,"t":3,"h":"b.example"}]}`,
		`{"reset":[2]}`,
		`{"visits":[{"user":-1,"t":2,"h":"a.example"}]}`,
		`{"visits":[{"user":1,"t":2,"h":""}]}`,
		`{"visits":[{"h":"é\ud800<&>"}],"extra":true} trailing`,
		`{"visits":[{"user":1.5,"t":2,"h":"a.example"}]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	// A blocklisted host beside a kept one.
	for _, host := range fx.u.Hosts {
		if fx.b.cfg.Blocklist.Contains(host.Name) {
			f.Add([]byte(fmt.Sprintf(`{"visits":[{"user":3,"t":4,"h":%q},{"user":3,"t":5,"h":"kept.example"}]}`, host.Name)))
			break
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("cap body size")
		}
		trim(fx.b)
		trim(peer.b)
		n, sum := storeDigest(fx.b)
		var req ImportRequest
		parsed := json.NewDecoder(bytes.NewReader(data)).Decode(&req) == nil
		touched := map[int][]trace.Visit{}
		if parsed {
			for _, u := range req.Reset {
				touched[u] = userVisits(fx.b, u)
			}
			for _, v := range req.Visits {
				touched[v.User] = userVisits(fx.b, v.User)
			}
		}

		rec := serveBody(h, http.MethodPost, "/v1/import", data)
		switch {
		case rec.Code >= 500:
			t.Fatalf("import answered %d on a healthy store: %s", rec.Code, rec.Body.String())
		case rec.Code != http.StatusOK:
			if n2, sum2 := storeDigest(fx.b); n2 != n || sum2 != sum {
				t.Fatalf("a %d import changed the store: %d visits → %d", rec.Code, n, n2)
			}
			return
		case !parsed:
			t.Fatalf("import accepted a body the decoder refuses: %q", data)
		}

		var resp ImportResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("import answer: %v", err)
		}
		want := map[int][]trace.Visit{}
		dropped := 0
		for u, before := range touched {
			if slices.Contains(req.Reset, u) {
				dropped += len(before)
			} else {
				want[u] = before
			}
		}
		appended := 0
		for _, v := range req.Visits {
			if !fx.b.cfg.Blocklist.Contains(v.Host) {
				want[v.User] = append(want[v.User], trace.Visit{User: v.User, Time: v.Time, Host: v.Host})
				appended++
			}
		}
		if resp.Appended != appended || resp.Dropped != dropped {
			t.Fatalf("import reports appended %d dropped %d, want %d and %d", resp.Appended, resp.Dropped, appended, dropped)
		}
		users := make([]int, 0, len(touched))
		for u := range touched {
			if got := userVisits(fx.b, u); !reflect.DeepEqual(got, want[u]) {
				t.Fatalf("user %d holds %v, want %v", u, got, want[u])
			}
			if u >= 0 {
				users = append(users, u)
			}
		}

		// The migration's copy: export every touched user and import it
		// into the peer over a reset, in chunks that stay under the body
		// cap however the hostnames escape; the peer must hold the same.
		chunk, size := ImportRequest{Reset: users}, 0
		flush := func() {
			body, _ := json.Marshal(chunk)
			if rec := serveBody(peerH, http.MethodPost, "/v1/import", body); rec.Code != http.StatusOK {
				t.Fatalf("re-import of the export: %d %s", rec.Code, rec.Body.String())
			}
			chunk, size = ImportRequest{}, 0
		}
		for _, u := range users {
			for _, v := range exportUser(t, h, u) {
				if size += len(v.Host); size > 1<<20 {
					flush()
					size = len(v.Host)
				}
				chunk.Visits = append(chunk.Visits, v)
			}
		}
		flush()
		for _, u := range users {
			if got, src := userVisits(peer.b, u), userVisits(fx.b, u); !reflect.DeepEqual(got, src) {
				t.Fatalf("user %d: export then import gives %v, the source holds %v", u, got, src)
			}
		}
	})
}
