package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hostprof/internal/fault"
	"hostprof/internal/obs"
	"hostprof/internal/server"
)

// alarmSuffixes name the counter families that only move when
// something went wrong.
var alarmSuffixes = []string{"_errors_total", "_panics_total", "_shed_total", "_partial_total", "_retries_total"}

// alarmDirection reports whether series s is an alarm series and, if
// so, which way it moves when it alarms: +1 for a counter or the
// degraded flag rising, -1 for a shard's up/ready gauge dropping.
func alarmDirection(s obs.MetricSnapshot) int {
	for _, suf := range alarmSuffixes {
		if strings.HasSuffix(s.Name, suf) {
			return 1
		}
	}
	switch s.Name {
	case "hostprof_store_degraded":
		return 1
	case "hostprof_gateway_shard_up", "hostprof_gateway_shard_ready":
		return -1
	case "hostprof_gateway_migrations_total":
		if s.Labels["outcome"] == "failed" {
			return 1
		}
	case "hostprof_gateway_migration_ranges_total":
		if s.Labels["outcome"] == "aborted" {
			return 1
		}
	}
	if code := s.Labels["code"]; strings.HasSuffix(s.Name, "_requests_total") && (code == "429" || strings.HasPrefix(code, "5")) {
		return 1
	}
	return 0
}

// signalPlane reads every process of a cluster fixture the way an
// operator does: each process's /varz snapshot and the gateway's event
// timeline. Backend URLs in labels are rendered as the shard names
// ("shard0", ...) so expectations do not depend on ports.
type signalPlane struct {
	fx    *clusterFixture
	names map[string]string // backend URL → shard name
}

func newSignalPlane(fx *clusterFixture) *signalPlane {
	p := &signalPlane{fx: fx, names: map[string]string{}}
	for i, srv := range fx.shardSrv {
		p.names[srv.URL] = fmt.Sprintf("shard%d", i)
	}
	return p
}

// series renders one snapshot series as "<process> name{k=v,...}".
func (p *signalPlane) series(proc string, s obs.MetricSnapshot) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lbl []string
	for _, k := range keys {
		v := s.Labels[k]
		if n, ok := p.names[v]; ok {
			v = n
		}
		lbl = append(lbl, k+"="+v)
	}
	return proc + " " + s.Name + "{" + strings.Join(lbl, ",") + "}"
}

// alarms snapshots every alarm series of the gateway and each shard,
// valued in its alarm direction (so a rise always means "alarmed").
func (p *signalPlane) alarms() map[string]float64 {
	out := map[string]float64{}
	read := func(proc string, reg *obs.Registry) {
		for _, s := range reg.Snapshot() {
			if dir := alarmDirection(s); dir != 0 {
				out[p.series(proc, s)] = float64(dir) * s.Value
			}
		}
	}
	read("gateway", p.fx.gw.Metrics())
	for i, b := range p.fx.backends {
		read(fmt.Sprintf("shard%d", i), b.Metrics())
	}
	return out
}

// moved lists the alarm series that rose between before and after; a
// series born after the first snapshot counts from zero.
func moved(before, after map[string]float64) []string {
	var out []string
	for k, v := range after {
		if v > before[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// lastEventID is the timeline cursor now.
func (p *signalPlane) lastEventID() int64 {
	_, last := p.fx.gw.events.since(0)
	return last
}

// eventsSince lists the timeline entries after cursor as
// "<type> <shard name>" (or "<type> <phase>" for migration entries),
// sorted and de-duplicated.
func (p *signalPlane) eventsSince(cursor int64) []string {
	evs, _ := p.fx.gw.events.since(cursor)
	var out []string
	for _, e := range evs {
		who := p.names[e.Shard]
		if e.Type == EventMigration {
			who = e.Attrs["phase"]
		}
		out = append(out, strings.TrimSpace(e.Type+" "+who))
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// ownedBy returns a user the ring places on node.
func ownedBy(t *testing.T, ring *Ring, node string) int {
	t.Helper()
	for uid := 0; uid < 10_000; uid++ {
		if owner, _ := ring.Owner(uid); owner == node {
			return uid
		}
	}
	t.Fatalf("the ring over %v gives %s no user", ring.Nodes(), node)
	return 0
}

// labelledHost is a host the ontology labels, so a report of it
// profiles cleanly and moves no profile-error counter.
func labelledHost(fx *clusterFixture) string {
	return fx.u.Hosts[fx.u.Sites[0].Host].Name
}

// holdReportSlot parks one report on shard inside its admission gate,
// so with MaxInflightReports 1 the next report there is shed. The
// returned func releases it and waits for it to finish.
func holdReportSlot(t *testing.T, fx *clusterFixture, shard int) (release func()) {
	t.Helper()
	entered, unblock := make(chan struct{}), make(chan struct{})
	fault.SetN(fault.HTTPPoint("report"), 1, func() error {
		close(entered)
		<-unblock
		return nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The held report itself succeeds once released; only the shed
		// one is the fault.
		reportAt(t, fx.shardSrv[shard].URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[shard].URL), 500_000, []string{labelledHost(fx)})
	}()
	<-entered
	return func() {
		close(unblock)
		<-done
		fault.Clear(fault.HTTPPoint("report"))
	}
}

// matrixVirtualNodes is the ring's virtual nodes per shard in
// TestFaultSignalMatrix's clusters.
const matrixVirtualNodes = 8

// TestFaultSignalMatrix is the fault → signal table: for every fault
// the tree can inject or provoke, the alarm series that move (a diff of
// every process's /varz snapshot, taken before and after) and the
// timeline events the gateway records — and no other alarm series. An
// alarm series is an *_errors_total, *_panics_total, *_shed_total,
// *_partial_total or *_retries_total counter, the store's degraded
// flag, a drop in a shard's up or ready gauge, a 5xx or 429 series of a
// *_requests_total family, or an aborted or failed migration outcome.
//
// Each row runs on a fresh two-shard cluster with durable stores and an
// admission limit of one report per shard, fed and trained through the
// gateway, so the baseline answers 200 everywhere.
func TestFaultSignalMatrix(t *testing.T) {
	boom := errors.New("injected")
	rows := []struct {
		name   string
		inject func(t *testing.T, fx *clusterFixture)
		alarms []string
		events []string
	}{
		{
			name: "store/wal-append error",
			inject: func(t *testing.T, fx *clusterFixture) {
				fault.Set(fault.StoreWALAppend, fault.Error(boom))
				report(t, fx.gwSrv.URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[0].URL), []string{labelledHost(fx)}, http.StatusOK)
			},
			alarms: []string{
				"gateway hostprof_gateway_shard_ready{backend=shard0}",
				"shard0 hostprof_store_append_errors_total{}",
				"shard0 hostprof_store_degraded{}",
			},
			events: []string{"shard_unready shard0"},
		},
		{
			name: "core/train-epoch error",
			inject: func(t *testing.T, fx *clusterFixture) {
				fault.Set(fault.TrainEpoch, fault.Error(boom))
				if resp := postJSON(t, fx.gwSrv.URL+"/v1/retrain", map[string]any{}, nil); resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("retrain under a failing epoch → %d, want 500", resp.StatusCode)
				}
			},
			alarms: []string{
				"gateway hostprof_gateway_requests_total{code=500,endpoint=retrain}",
				"gateway hostprof_gateway_shard_requests_total{backend=shard0,code=500}",
				"shard0 hostprof_http_requests_total{code=500,endpoint=retrain}",
				"shard0 hostprof_retrain_errors_total{}",
			},
		},
		{
			name: "http/report panic",
			inject: func(t *testing.T, fx *clusterFixture) {
				fault.SetN(fault.HTTPPoint("report"), 1, fault.Panic("matrix"))
				report(t, fx.gwSrv.URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[0].URL), []string{labelledHost(fx)}, http.StatusInternalServerError)
			},
			alarms: []string{
				"gateway hostprof_gateway_requests_total{code=500,endpoint=report}",
				"gateway hostprof_gateway_shard_requests_total{backend=shard0,code=500}",
				"shard0 hostprof_http_panics_total{}",
				"shard0 hostprof_http_requests_total{code=500,endpoint=report}",
			},
		},
		{
			name: "http/report error",
			inject: func(t *testing.T, fx *clusterFixture) {
				fault.SetN(fault.HTTPPoint("report"), 1, fault.Error(boom))
				report(t, fx.gwSrv.URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[0].URL), []string{labelledHost(fx)}, http.StatusInternalServerError)
			},
			alarms: []string{
				"gateway hostprof_gateway_requests_total{code=500,endpoint=report}",
				"gateway hostprof_gateway_shard_requests_total{backend=shard0,code=500}",
				"shard0 hostprof_http_requests_total{code=500,endpoint=report}",
			},
		},
		{
			name: "report admission shed",
			inject: func(t *testing.T, fx *clusterFixture) {
				release := holdReportSlot(t, fx, 0)
				defer release()
				report(t, fx.shardSrv[0].URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[0].URL), []string{labelledHost(fx)}, http.StatusTooManyRequests)
			},
			alarms: []string{
				"shard0 hostprof_http_requests_total{code=429,endpoint=report}",
				"shard0 hostprof_http_shed_total{}",
			},
		},
		{
			name: "shard sheds behind the gateway",
			inject: func(t *testing.T, fx *clusterFixture) {
				release := holdReportSlot(t, fx, 0)
				defer release()
				report(t, fx.gwSrv.URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[0].URL), []string{labelledHost(fx)}, http.StatusTooManyRequests)
			},
			alarms: []string{
				"gateway hostprof_gateway_requests_total{code=429,endpoint=report}",
				"gateway hostprof_gateway_retries_total{}",
				"gateway hostprof_gateway_shard_requests_total{backend=shard0,code=429}",
				"shard0 hostprof_http_requests_total{code=429,endpoint=report}",
				"shard0 hostprof_http_shed_total{}",
			},
		},
		{
			name: "shard listener closed",
			inject: func(t *testing.T, fx *clusterFixture) {
				fx.shardSrv[1].Close()
				fx.gw.CheckHealth(context.Background())
				report(t, fx.gwSrv.URL, ownedBy(t, fx.gw.Ring(), fx.shardSrv[1].URL), []string{labelledHost(fx)}, http.StatusServiceUnavailable)
			},
			alarms: []string{
				"gateway hostprof_gateway_requests_total{code=503,endpoint=report}",
				"gateway hostprof_gateway_shard_ready{backend=shard1}",
				"gateway hostprof_gateway_shard_up{backend=shard1}",
				"gateway hostprof_gateway_shed_total{}",
			},
			events: []string{"shard_down shard1", "shed_open shard1"},
		},
		{
			name: "cluster/migrate-copy-chunk error",
			inject: func(t *testing.T, fx *clusterFixture) {
				// A chunk is copied, and the fault fires, only if a user
				// with history moves. The shards' ports are random, and
				// on about one port triple in a hundred the new ring
				// gives the joiner none of the fed users, so report one
				// it does give the joiner first.
				members := append(fx.gw.Ring().Nodes(), fx.shardSrv[2].URL)
				next, err := NewRing(members, matrixVirtualNodes)
				if err != nil {
					t.Fatal(err)
				}
				report(t, fx.gwSrv.URL, ownedBy(t, next, fx.shardSrv[2].URL), []string{labelledHost(fx)}, http.StatusOK)
				fault.Set(fault.MigrateCopyChunk, fault.Error(boom))
				m, _, err := fx.gw.Resize(context.Background(), members)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				if err := waitMigration(ctx, m); err == nil {
					t.Fatal("migration with every copy chunk failing succeeded")
				}
			},
			alarms: []string{
				"gateway hostprof_gateway_migration_ranges_total{outcome=aborted}",
				"gateway hostprof_gateway_migrations_total{outcome=failed}",
			},
			// The joiner is seeded with the model during planning; the
			// ranges then abort and the migration fails.
			events: []string{
				"migration copying", "migration failed", "migration planning",
				"migration_range shard2", "model_version shard2", "shard_ready shard2", "shard_up shard2",
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			fx := newClusterFixtureWith(t, 2, 12, func(c *Config) {
				c.VirtualNodes = matrixVirtualNodes
			}, func(c *server.Config) {
				c.DataDir = t.TempDir()
				c.MaxInflightReports = 1
			})
			fx.feedViaGateway(t)
			fx.retrainViaGateway(t)
			fx.addShard(t) // the resize row's joiner; idle otherwise
			fx.gw.CheckHealth(context.Background())
			plane := newSignalPlane(fx)

			before, cursor := plane.alarms(), plane.lastEventID()
			row.inject(t, fx)
			fx.gw.CheckHealth(context.Background())
			gotAlarms := moved(before, plane.alarms())
			gotEvents := plane.eventsSince(cursor)

			if !slices.Equal(gotAlarms, row.alarms) {
				t.Errorf("alarm series moved:\n\t%s\nwant:\n\t%s",
					strings.Join(gotAlarms, "\n\t"), strings.Join(row.alarms, "\n\t"))
			}
			if !slices.Equal(gotEvents, row.events) {
				t.Errorf("timeline events: %q, want %q", gotEvents, row.events)
			}
		})
	}
}
