package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

// jobStatusResp is the slice of /v1/jobs/{id} these tests read.
type jobStatusResp struct {
	Job    string          `json:"job"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// getJob fetches /v1/jobs/{id}; found=false means 404.
func getJob(t *testing.T, d *daemon, id string) (st jobStatusResp, found bool) {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("job %s status not JSON: %v", id, err)
	}
	return st, true
}

// waitJobState polls until the job reaches state (or any terminal state
// when state is "done"/"failed" and the other arrives instead).
func waitJobState(t *testing.T, d *daemon, id, state string, timeout time.Duration) jobStatusResp {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, found := getJob(t, d, id)
		if !found {
			t.Fatalf("job %s vanished (404) while waiting for %q", id, state)
		}
		if st.Status == state || st.Status == "done" || st.Status == "failed" {
			return st
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q within %s", id, state, timeout)
	return jobStatusResp{}
}

// jsonEq compares two JSON documents modulo whitespace (the job-status
// endpoint re-marshals the embedded artifact).
func jsonEq(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return bytes.Equal(a, b)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// submitAsync posts an async request and returns the acknowledged job id.
func submitAsync(t *testing.T, d *daemon, path, body string) string {
	t.Helper()
	code, _, resp := d.post(t, path, body)
	if code != http.StatusAccepted {
		t.Fatalf("async submit %s: %d %s", body, code, resp)
	}
	var ack struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(resp, &ack); err != nil || ack.Job == "" {
		t.Fatalf("202 body %q", resp)
	}
	return ack.Job
}

// TestSigkillJournalReplayByteIdentical is the PR's crash acceptance
// criterion end to end: a daemon with a journal is SIGKILLed while one
// ATPG job is mid-run and another is queued; a new daemon started over
// the same cache dir and journal completes BOTH jobs under their
// original ids, and the results are byte-identical to an uninterrupted
// run on a pristine daemon.
func TestSigkillJournalReplayByteIdentical(t *testing.T) {
	bin := buildBinary(t)
	// The heavy job is a stand-in four times the size of s15850. Its ATPG
	// runs for seconds on one worker: long enough that its checkpoint file
	// demonstrably lands first and the kill still finds it mid-run.
	prof, _ := bench89.ProfileByName("s15850")
	prof.Name = "s15850x4"
	prof.Inputs *= 4
	prof.Outputs *= 4
	prof.DFFs *= 4
	prof.Gates *= 4
	big, err := bench89.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	heavyReq, _ := json.Marshal(map[string]any{"bench": netlist.BenchString(big)})
	heavy := string(heavyReq)
	tinyReq, _ := json.Marshal(map[string]any{"bench": tinyBench})

	// The uninterrupted baseline, from a daemon that never crashes.
	db := startDaemon(t, bin, "-workers", "1", "-cache-dir", filepath.Join(t.TempDir(), "cache"))
	code, _, wantHeavy := db.post(t, "/v1/atpg", heavy)
	if code != http.StatusOK {
		t.Fatalf("baseline heavy: %d %s", code, wantHeavy)
	}
	code, _, wantTiny := db.post(t, "/v1/atpg", string(tinyReq))
	if code != http.StatusOK {
		t.Fatalf("baseline tiny: %d %s", code, wantTiny)
	}
	if err := db.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	db.wait(t)

	// The crash victim: one worker, so the heavy job runs while the tiny
	// one is provably still queued when the kill lands.
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	journal := filepath.Join(dir, "journal.jsonl")
	d := startDaemon(t, bin, "-workers", "1", "-cache-dir", cache, "-journal", journal)
	heavyJob := submitAsync(t, d, "/v1/atpg", `{"bench":`+string(mustQuote(t, netlist.BenchString(big)))+`,"async":true}`)
	tinyJob := submitAsync(t, d, "/v1/atpg", `{"bench":`+string(mustQuote(t, tinyBench))+`,"async":true}`)

	waitJobState(t, d, heavyJob, "running", 30*time.Second)
	// Wait for the running job's first checkpoint to land (every 16 faults
	// of thousands), then kill -9 — no drain, no goodbye. Killing only
	// after the checkpoint exists makes the mid-run-resume path
	// deterministic rather than a race against the engine's first flush.
	ckpt := filepath.Join(journal+".ckpt", heavyJob+".ckpt")
	ckptDeadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(ckptDeadline) {
			t.Fatalf("mid-run job never wrote a checkpoint at %s", ckpt)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()

	// The journal survived the kill and holds both admissions. (The
	// replay count checked at the end shows neither had completed: the
	// kill landed mid-run.)
	if data, err := os.ReadFile(journal); err != nil || !bytes.Contains(data, []byte(heavyJob)) || !bytes.Contains(data, []byte(tinyJob)) {
		t.Fatalf("journal after kill (err %v):\n%s", err, data)
	}

	// Restart over the same state. The client re-polls the SAME job ids.
	d2 := startDaemon(t, bin, "-workers", "1", "-cache-dir", cache, "-journal", journal)
	stHeavy := waitJobState(t, d2, heavyJob, "done", 2*time.Minute)
	stTiny := waitJobState(t, d2, tinyJob, "done", time.Minute)
	if stHeavy.Status != "done" || stTiny.Status != "done" {
		t.Fatalf("replayed jobs: heavy=%s (%s), tiny=%s (%s)",
			stHeavy.Status, stHeavy.Error, stTiny.Status, stTiny.Error)
	}
	if !jsonEq(stHeavy.Result, wantHeavy) {
		t.Errorf("replayed heavy result differs from uninterrupted run:\n%s\nvs\n%s", stHeavy.Result, wantHeavy)
	}
	if !jsonEq(stTiny.Result, wantTiny) {
		t.Errorf("replayed tiny result differs from uninterrupted run:\n%s\nvs\n%s", stTiny.Result, wantTiny)
	}

	// The replayed results landed in the store: synchronous re-requests
	// are warm hits, byte-for-byte the baseline bytes.
	code, hit, got := d2.post(t, "/v1/atpg", heavy)
	if code != http.StatusOK || hit != "hit" {
		t.Fatalf("post-replay heavy: %d X-Cache=%q", code, hit)
	}
	if !bytes.Equal(got, wantHeavy) {
		t.Error("post-replay heavy bytes differ from uninterrupted run")
	}
	code, hit, got = d2.post(t, "/v1/atpg", string(tinyReq))
	if code != http.StatusOK || hit != "hit" {
		t.Fatalf("post-replay tiny: %d X-Cache=%q", code, hit)
	}
	if !bytes.Equal(got, wantTiny) {
		t.Error("post-replay tiny bytes differ from uninterrupted run")
	}

	// And the daemon accounted for the recovery.
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	resp, err := http.Get(d2.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["srv.journal.replayed"]; got != 2 {
		t.Errorf("srv.journal.replayed = %d, want 2", got)
	}
}

func mustQuote(t *testing.T, s string) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptArtifactQuarantinedAndRecomputed is the store-integrity
// acceptance criterion at the process level: flipping bytes in a cached
// artifact on disk yields a quarantine + transparent recompute with
// identical bytes — live, and again via the startup scrub after a
// restart.
func TestCorruptArtifactQuarantinedAndRecomputed(t *testing.T) {
	bin := buildBinary(t)
	cache := filepath.Join(t.TempDir(), "cache")
	req, _ := json.Marshal(map[string]any{"bench": tinyBench})

	d := startDaemon(t, bin, "-cache-dir", cache)
	code, _, cold := d.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK {
		t.Fatalf("cold: %d %s", code, cold)
	}

	corrupt := func() string {
		t.Helper()
		arts, err := filepath.Glob(filepath.Join(cache, "*.art"))
		if err != nil || len(arts) != 1 {
			t.Fatalf("cache artifacts = %v (err %v), want exactly 1", arts, err)
		}
		data, err := os.ReadFile(arts[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(arts[0], data, 0o666); err != nil {
			t.Fatal(err)
		}
		return arts[0]
	}
	corrupted := corrupt()

	// The poisoned read is a miss + recompute, not an error and never the
	// wrong bytes.
	code, hit, again := d.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK || hit != "miss" {
		t.Fatalf("post-corruption: %d X-Cache=%q", code, hit)
	}
	if !bytes.Equal(cold, again) {
		t.Error("recomputed bytes differ from the original response")
	}
	// The corrupt file moved to quarantine; the recompute re-wrote the key.
	if q, _ := filepath.Glob(filepath.Join(cache, "quarantine", "*.art")); len(q) != 1 {
		t.Errorf("quarantine holds %d files, want 1", len(q))
	}
	if _, err := os.Stat(corrupted); err != nil {
		t.Errorf("artifact not rewritten after recompute: %v", err)
	}
	code, hit, _ = d.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK || hit != "hit" {
		t.Errorf("post-recompute warm: %d X-Cache=%q", code, hit)
	}

	// Counters surfaced on /metricsz, JSON and Prometheus both.
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	resp, err := http.Get(d.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["store.corrupt"] != 1 || snap.Counters["store.quarantined"] != 1 {
		t.Errorf("store.corrupt=%d store.quarantined=%d, want 1/1",
			snap.Counters["store.corrupt"], snap.Counters["store.quarantined"])
	}
	presp, err := http.Get(d.base + "/metricsz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom := new(bytes.Buffer)
	_, _ = prom.ReadFrom(presp.Body)
	presp.Body.Close()
	if !bytes.Contains(prom.Bytes(), []byte("repro_store_corrupt_total 1")) {
		t.Errorf("prometheus exposition missing store corruption counter:\n%s", prom)
	}

	// Restart path: corrupt again while the daemon is down; the startup
	// scrub quarantines it before the first request.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.wait(t)
	corrupt()
	d2 := startDaemon(t, bin, "-cache-dir", cache)
	resp, err = http.Get(d2.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	snap.Counters = nil
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["store.corrupt"] != 1 {
		t.Errorf("startup scrub: store.corrupt = %d, want 1", snap.Counters["store.corrupt"])
	}
	code, hit, final := d2.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK || hit != "miss" {
		t.Fatalf("post-scrub request: %d X-Cache=%q", code, hit)
	}
	if !bytes.Equal(cold, final) {
		t.Error("post-scrub recompute differs from the original response")
	}
}
