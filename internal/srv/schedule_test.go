package srv

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestScheduleEndpointWarmColdByteIdentical is the acceptance gate at the
// serving layer: the warm response is served from the store byte-for-byte
// equal to the cold compute — including across a daemon restart over the
// same store directory, the property the CI smoke re-checks over real HTTP.
func TestScheduleEndpointWarmColdByteIdentical(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	col := obs.New(reg, nil)
	st, err := store.Open(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 2, Store: st, Col: col})
	h := s.Handler()

	body := `{"builtin":"d695","tam":32}`
	cold := post(t, h, "/v1/schedule", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body)
	}
	if cold.Header().Get("X-Cache") != "miss" {
		t.Errorf("cold X-Cache = %q", cold.Header().Get("X-Cache"))
	}
	warm := post(t, h, "/v1/schedule", body)
	if warm.Header().Get("X-Cache") != "hit" {
		t.Errorf("warm X-Cache = %q", warm.Header().Get("X-Cache"))
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("warm body differs from cold")
	}

	var sch struct {
		SOC        string `json:"soc"`
		TAMWidth   int    `json:"tam_width"`
		TotalTime  int64  `json:"total_time"`
		LowerBound int64  `json:"lower_bound"`
		Placements []any  `json:"placements"`
		Abort      struct {
			OptimalOrder []string `json:"optimal_order"`
		} `json:"abort"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &sch); err != nil {
		t.Fatalf("response not a schedule: %v", err)
	}
	if sch.SOC != "d695" || sch.TAMWidth != 32 || sch.TotalTime <= 0 || len(sch.Placements) == 0 {
		t.Fatalf("implausible schedule: %+v", sch)
	}
	if sch.TotalTime > 2*sch.LowerBound {
		t.Fatalf("total %d exceeds 2x lower bound %d", sch.TotalTime, sch.LowerBound)
	}
	if len(sch.Abort.OptimalOrder) != len(sch.Placements) {
		t.Error("abort ordering incomplete")
	}

	// "Restart": a fresh server over the same store must serve the same
	// bytes as a cache hit, not recompute-and-differ.
	s.Drain()
	reg2 := obs.NewRegistry()
	col2 := obs.New(reg2, nil)
	st2, err := store.Open(dir, 0, col2)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, Config{Workers: 2, Store: st2, Col: col2})
	after := post(t, s2.Handler(), "/v1/schedule", body)
	if after.Code != http.StatusOK {
		t.Fatalf("post-restart: %d %s", after.Code, after.Body)
	}
	if after.Header().Get("X-Cache") != "hit" {
		t.Errorf("post-restart X-Cache = %q, want hit", after.Header().Get("X-Cache"))
	}
	if !bytes.Equal(after.Body.Bytes(), cold.Body.Bytes()) {
		t.Error("post-restart body differs from original cold compute")
	}
}

// TestScheduleOptionsChangeContentAddress: every option that steers the
// packing must land in the cache key.
func TestScheduleOptionsChangeContentAddress(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()

	first := post(t, h, "/v1/schedule", `{"builtin":"h953","tam":32}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d %s", first.Code, first.Body)
	}
	for _, body := range []string{
		`{"builtin":"h953","tam":16}`,
		`{"builtin":"h953","tam":32,"power_budget":9999999}`,
	} {
		rec := post(t, h, "/v1/schedule", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
		}
		if rec.Header().Get("X-Cache") != "miss" {
			t.Errorf("%s: stale cache hit across changed options", body)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	for _, tc := range []struct{ body, wantErr string }{
		{`{"builtin":"d695"}`, "TAM width 0 outside 1..64"},
		{`{"builtin":"d695","tam":65}`, "TAM width 65 outside 1..64"},
		{`{"builtin":"d695","tam":32,"power_budget":-1}`, "coopt: power budget must be"},
		{`{"tam":32}`, "need soc or builtin"},
		{`{"builtin":"d695","soc":"x","tam":32}`, "not both"},
		{`{"builtin":"nope","tam":32}`, "unknown SOC"},
		{`{"builtin":"d695","tam":32,"precedence":[["ghost","d695-core1"]]}`, "unknown core"},
	} {
		rec := post(t, h, "/v1/schedule", tc.body)
		if tc.wantErr == "unknown core" {
			// Precedence is validated inside the packing run, not at admission.
			if rec.Code != http.StatusInternalServerError && rec.Code != http.StatusBadRequest {
				t.Errorf("%s: code %d", tc.body, rec.Code)
			}
			continue
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%s)", tc.body, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.body, rec.Body, tc.wantErr)
		}
	}
}

// TestScheduleReplayRebuildsIdenticalWork: journal replay must rebuild the
// schedule work unit through the same code path and produce the same
// bytes and content address as the original admission.
func TestScheduleReplayRebuildsIdenticalWork(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	req := scheduleRequest{Builtin: "g1023", TAM: 24}
	wk, err := scheduleWork(&req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := wk.run(context.Background(), s.col)
	if err != nil {
		t.Fatal(err)
	}

	replayed, err := replayWork(s, "schedule", marshalReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.key != wk.key || replayed.kind != "schedule" {
		t.Fatalf("replayed work differs: key %q vs %q", replayed.key, wk.key)
	}
	viaReplay, err := replayed.run(context.Background(), s.col)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, viaReplay) {
		t.Error("replayed run produced different bytes")
	}
}

// TestScheduleHistogramsFirstClass: the schedule histograms must appear in
// the registry before any schedule job has run (pre-registered in New),
// and fill in after one runs.
func TestScheduleHistogramsFirstClass(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	snap := reg.Snapshot()
	if _, ok := snap.Histograms["srv.queuewait.schedule"]; !ok {
		t.Error("srv.queuewait.schedule not pre-registered")
	}
	if _, ok := snap.Histograms["srv.service.schedule"]; !ok {
		t.Error("srv.service.schedule not pre-registered")
	}

	rec := post(t, s.Handler(), "/v1/schedule", `{"builtin":"d695","tam":16}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule: %d %s", rec.Code, rec.Body)
	}
	snap = reg.Snapshot()
	if snap.Histograms["srv.queuewait.schedule"].Count != 1 {
		t.Errorf("queuewait count = %d, want 1", snap.Histograms["srv.queuewait.schedule"].Count)
	}
	if snap.Histograms["srv.service.schedule"].Count != 1 {
		t.Errorf("service count = %d, want 1", snap.Histograms["srv.service.schedule"].Count)
	}
}
