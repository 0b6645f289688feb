// Export/import surface: the shard-to-shard data plane behind keyspace
// migration. A gateway rebalancing the cluster streams users' visit
// records out of the old owner (GET /v1/export, chunked and resumable
// via a per-user offset watermark), loads them into the new owner
// (POST /v1/import), and verifies the copy with an order-insensitive
// content digest (GET /v1/export/digest) before cutting routing over.
//
// The endpoints are deliberately dumb — offset reads, blind appends, a
// whole-user reset — so every invariant the migration needs (exactness,
// idempotent resume, rollback) lives in one place, the gateway's
// migration state machine, and a half-finished copy can always be
// repaired by reset + recopy.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/store"
	"hostprof/internal/trace"
)

// exportMaxRecords caps the visits one export call returns across all
// requested users, bounding response size however large a chunk the
// caller asks for.
const exportMaxRecords = 65536

// exportDefaultLimit is the per-user chunk size when the caller does not
// pass one.
const exportDefaultLimit = 4096

// maxImportBody caps one import call's body. Larger than the general
// JSON cap: an import chunk carries thousands of visit records.
const maxImportBody = 8 << 20

// WireVisit is one visit on the export/import wire.
type WireVisit struct {
	User int    `json:"user"`
	Time int64  `json:"t"`
	Host string `json:"h"`
}

// ExportUserChunk is one user's slice of an export response: visits
// [From, From+len(Visits)) of the user's stored subsequence, plus the
// subsequence's total length at read time so the caller knows how far
// its watermark still has to travel.
type ExportUserChunk struct {
	User   int         `json:"user"`
	From   int         `json:"from"`
	Total  int         `json:"total"`
	Visits []WireVisit `json:"visits"`
}

// ExportResponse carries one chunk per requested user.
type ExportResponse struct {
	Users []ExportUserChunk `json:"users"`
}

// ExportUsersResponse lists the distinct user IDs stored on this shard.
type ExportUsersResponse struct {
	Users []int `json:"users"`
}

// UserDigestWire is one user's migration handshake digest: record count
// plus the order-insensitive content-hash sum (hex; see
// store.VisitHash).
type UserDigestWire struct {
	Count int    `json:"count"`
	Sum   string `json:"sum"`
}

// DigestResponse maps requested user IDs (decimal strings — JSON object
// keys) to their digests.
type DigestResponse struct {
	Digests map[string]UserDigestWire `json:"digests"`
}

// ImportRequest loads migrated records into this shard: Reset drops the
// listed users' existing visits first (the migration's recopy path),
// then Visits are appended in order. Either field may be empty.
type ImportRequest struct {
	Reset  []int       `json:"reset,omitempty"`
	Visits []WireVisit `json:"visits,omitempty"`
}

// ImportResponse reports what an import applied.
type ImportResponse struct {
	Appended int `json:"appended"`
	Dropped  int `json:"dropped"`
}

// parseUserList parses the comma-separated users query parameter.
func parseUserList(raw string) ([]int, error) {
	if raw == "" {
		return nil, errors.New("missing users parameter")
	}
	parts := strings.Split(raw, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		u, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || u < 0 {
			return nil, fmt.Errorf("bad user %q", p)
		}
		out = append(out, u)
	}
	return out, nil
}

func (b *Backend) handleExportUsers(w http.ResponseWriter, r *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, ExportUsersResponse{Users: b.store.Users()})
}

// handleExport streams visit records: ?users=1,2,3&from=N&limit=M reads
// each listed user's subsequence starting at offset from (the caller's
// watermark), at most limit visits per user and exportMaxRecords per
// call. Offsets are stable across calls and restarts (see
// store.UserVisits), so a copy interrupted anywhere resumes exactly.
func (b *Backend) handleExport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	users, err := parseUserList(q.Get("users"))
	if err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	from := 0
	if s := q.Get("from"); s != "" {
		if from, err = strconv.Atoi(s); err != nil || from < 0 {
			httpmw.WriteError(w, http.StatusBadRequest, "bad from offset")
			return
		}
	}
	limit := exportDefaultLimit
	if s := q.Get("limit"); s != "" {
		if limit, err = strconv.Atoi(s); err != nil || limit <= 0 {
			httpmw.WriteError(w, http.StatusBadRequest, "bad limit")
			return
		}
	}
	resp := ExportResponse{Users: make([]ExportUserChunk, 0, len(users))}
	exported, budget := 0, exportMaxRecords
	for _, u := range users {
		lim := limit
		if lim > budget {
			lim = budget
		}
		visits, total := b.store.UserVisits(u, from, lim)
		chunk := ExportUserChunk{User: u, From: from, Total: total, Visits: make([]WireVisit, len(visits))}
		for i, v := range visits {
			chunk.Visits[i] = WireVisit{User: v.User, Time: v.Time, Host: v.Host}
		}
		resp.Users = append(resp.Users, chunk)
		exported += len(visits)
		budget -= len(visits)
		if budget <= 0 {
			break
		}
	}
	b.reg.Counter("hostprof_export_records_total").Add(int64(exported))
	httpmw.WriteJSON(w, http.StatusOK, resp)
}

// handleExportDigest answers the migration's checksum handshake:
// ?users=... returns each user's record count and content-digest sum.
func (b *Backend) handleExportDigest(w http.ResponseWriter, r *http.Request) {
	users, err := parseUserList(r.URL.Query().Get("users"))
	if err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := DigestResponse{Digests: make(map[string]UserDigestWire, len(users))}
	for _, u := range users {
		count, sum := b.store.UserDigest(u)
		resp.Digests[strconv.Itoa(u)] = UserDigestWire{Count: count, Sum: strconv.FormatUint(sum, 16)}
	}
	httpmw.WriteJSON(w, http.StatusOK, resp)
}

// handleImport applies one migration chunk: reset listed users, then
// append visits. Appends go through the normal ingest path (WAL-first,
// blocklist-filtered), so an imported record is exactly as durable as a
// reported one and a double-written raw report is filtered identically
// to how the source filtered it — the digest handshake depends on that.
// The reset is memory-only until the next snapshot; the migration's
// verify pass catches a crash-resurrected reset and simply recopies.
func (b *Backend) handleImport(w http.ResponseWriter, r *http.Request) {
	var req ImportRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxImportBody))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpmw.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpmw.WriteError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	// Everything Append could refuse is refused here, before the reset, so
	// a bad chunk changes nothing.
	for _, v := range req.Visits {
		if v.User < 0 || v.Time < 0 || v.Host == "" {
			httpmw.WriteError(w, http.StatusBadRequest, "import visit needs non-negative user/time and a host")
			return
		}
		if err := store.CheckHost(v.Host); err != nil {
			httpmw.WriteError(w, http.StatusBadRequest, "import: "+err.Error())
			return
		}
	}
	resp := ImportResponse{Dropped: b.store.DropUsers(req.Reset)}
	batch := make([]trace.Visit, 0, len(req.Visits))
	for _, v := range req.Visits {
		if b.cfg.Blocklist != nil && b.cfg.Blocklist.Contains(v.Host) {
			continue
		}
		batch = append(batch, trace.Visit{User: v.User, Time: v.Time, Host: v.Host})
	}
	appendErr := b.store.Append(batch...)
	if appendErr == nil {
		resp.Appended = len(batch)
	}
	b.reg.Counter("hostprof_import_records_total").Add(int64(resp.Appended))
	if len(req.Reset) > 0 {
		b.reg.Counter("hostprof_import_resets_total",
			obs.L("outcome", "ok")).Add(int64(len(req.Reset)))
	}
	if appendErr != nil {
		httpmw.WriteError(w, http.StatusInternalServerError, "import: "+appendErr.Error())
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, resp)
}
