package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/store"
)

// journalLine marshals one record the way the daemon writes it.
func journalLine(t *testing.T, rec journalRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// waitDone polls a retained job until it reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) *job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j := s.lookup(id)
		if j == nil {
			t.Fatalf("job %s not retained", id)
		}
		st, _, _, _, _ := j.snapshot()
		if st == stateDone || st == stateFailed {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestJournalReplayCompletesUnfinishedJobs is the in-process half of the
// crash contract (cmd/socd's exec test covers the SIGKILL half): a
// journal holding admitted-but-unfinished jobs is replayed at startup,
// the jobs finish under their ORIGINAL ids, and the journal is compacted.
func TestJournalReplayCompletesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")

	lintReq, _ := json.Marshal(lintRequest{Bench: tinyBench})
	atpgReq, _ := json.Marshal(atpgRequest{Bench: tinyBench})
	var buf strings.Builder
	// j1 finished in the previous life: must NOT rerun.
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j1", Seq: 1, Kind: "lint", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opStart, Job: "j1", Seq: 1, Kind: "lint"}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opDone, Job: "j1", Seq: 1, Kind: "lint", OK: true}))
	// j2 was queued, j3 was mid-run when the daemon died: both pending.
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j2", Seq: 2, Kind: "lint", Client: "key:a", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j3", Seq: 3, Kind: "atpg", Client: "key:b", Req: atpgReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opStart, Job: "j3", Seq: 3, Kind: "atpg"}))
	if err := os.WriteFile(jpath, []byte(buf.String()), 0o666); err != nil {
		t.Fatal(err)
	}

	s, reg := newTestServer(t, Config{Workers: 2, JournalPath: jpath})
	j2 := waitDone(t, s, "j2")
	j3 := waitDone(t, s, "j3")
	for _, j := range []*job{j2, j3} {
		st, result, jerr, _, _ := j.snapshot()
		if st != stateDone || jerr != nil {
			t.Fatalf("replayed %s: state=%v err=%v", j.id, st, jerr)
		}
		if len(result) == 0 {
			t.Fatalf("replayed %s produced no bytes", j.id)
		}
	}
	if s.lookup("j1") != nil {
		t.Error("finished job j1 was replayed")
	}
	if got := reg.Counter("srv.journal.replayed").Value(); got != 2 {
		t.Errorf("srv.journal.replayed = %d, want 2", got)
	}

	// A replayed result must be byte-identical to a fresh computation of
	// the same request — the client that re-polls across the crash sees
	// exactly what an uninterrupted run would have returned.
	fresh := post(t, s.Handler(), "/v1/lint", fmt.Sprintf(`{"bench":%q,"nocache":true}`, tinyBench))
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh lint = %d", fresh.Code)
	}
	_, replayed, _, _, _ := j2.snapshot()
	if string(replayed) != fresh.Body.String() {
		t.Errorf("replayed bytes differ from fresh computation:\n%s\nvs\n%s", replayed, fresh.Body)
	}
}

// TestJournalReplayKeepsFirstLifeIdentity: a job replayed from its admit
// record comes back as the job its first life acknowledged — same id,
// seq, key, client, priority and trace, and the same root, queue and work
// span IDs — whether or not the request bypassed the cache.
func TestJournalReplayKeepsFirstLifeIdentity(t *testing.T) {
	for _, nocache := range []bool{false, true} {
		t.Run(fmt.Sprintf("nocache=%v", nocache), func(t *testing.T) {
			dir := t.TempDir()
			first, _ := newTestServer(t, Config{Workers: 1, JournalPath: filepath.Join(dir, "first.jsonl")})
			body, _ := json.Marshal(map[string]any{"bench": tinyBench, "async": true, "priority": 3, "nocache": nocache})
			req := httptest.NewRequest(http.MethodPost, "/v1/lint", strings.NewReader(string(body)))
			req.Header.Set("X-API-Key", "a")
			rec := httptest.NewRecorder()
			first.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				t.Fatalf("async lint: %d %s", rec.Code, rec.Body)
			}
			var acc struct {
				Job   string `json:"job"`
				Trace string `json:"trace"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				t.Fatal(err)
			}
			j1 := waitDone(t, first, acc.Job)
			waitRingClosed(t, j1)

			// The second life starts from a journal holding only the admit.
			data, err := os.ReadFile(filepath.Join(dir, "first.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			var admit string
			for _, line := range strings.Split(string(data), "\n") {
				var r journalRecord
				if json.Unmarshal([]byte(line), &r) == nil && r.Op == opAdmit && r.Job == acc.Job {
					admit = line + "\n"
				}
			}
			if admit == "" {
				t.Fatalf("journal holds no admit record for %s:\n%s", acc.Job, data)
			}
			jpath := filepath.Join(dir, "second.jsonl")
			if err := os.WriteFile(jpath, []byte(admit), 0o666); err != nil {
				t.Fatal(err)
			}
			second, _ := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
			j2 := waitDone(t, second, acc.Job)
			waitRingClosed(t, j2)

			if j2.id != acc.Job || j2.seq != j1.seq || j2.key != j1.key || j2.client != j1.client || j2.priority != j1.priority {
				t.Errorf("replayed job (id %s, seq %d, key %q, client %q, priority %d), first life (id %s, seq %d, key %q, client %q, priority %d)",
					j2.id, j2.seq, j2.key, j2.client, j2.priority, acc.Job, j1.seq, j1.key, j1.client, j1.priority)
			}
			if j1.client != "key:a" || j1.priority != 3 || (j1.key == "") != nocache {
				t.Errorf("first life client %q, priority %d, key %q: request not applied", j1.client, j1.priority, j1.key)
			}
			if j2.tc.Trace != acc.Trace {
				t.Errorf("replayed trace %s, first life's 202 gave %s", j2.tc.Trace, acc.Trace)
			}
			spans := func(j *job, rootEvent string) [3]string {
				var sp [3]string
				for _, e := range collectEvents(t, j) {
					id, _ := e["span"].(string)
					switch e["event"] {
					case rootEvent:
						sp[0] = id
					case "srv.queue.begin":
						sp[1] = id
					case "srv.job.begin":
						sp[2] = id
					}
				}
				return sp
			}
			want, got := spans(j1, "srv.admit"), spans(j2, "srv.replay")
			if want[0] == "" || want[1] == "" || want[2] == "" || got != want {
				t.Errorf("replayed root/queue/work spans %v, first life %v", got, want)
			}
		})
	}
}

// TestJournalNewIDsDoNotCollide: after replay, freshly submitted jobs get
// ids beyond the journal's max seq.
func TestJournalNewIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	lintReq, _ := json.Marshal(lintRequest{Bench: tinyBench})
	rec := journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j7", Seq: 7, Kind: "lint", Req: lintReq})
	if err := os.WriteFile(jpath, []byte(rec), 0o666); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	waitDone(t, s, "j7")
	j, _, err := s.submit(work{kind: "lint", key: "", run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
		return []byte("ok\n"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if j.id != "j8" {
		t.Errorf("post-replay id = %s, want j8", j.id)
	}
	<-j.done
}

// TestJournalReplayEdgeCases: a torn final line, an unknown record
// version, and an unknown job kind each degrade to a counter — the valid
// pending job still replays, the junk is compacted away, and nothing
// panics.
func TestJournalReplayEdgeCases(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	lintReq, _ := json.Marshal(lintRequest{Bench: tinyBench})
	var buf strings.Builder
	buf.WriteString(journalLine(t, journalRecord{V: 2, Op: opAdmit, Job: "j1", Seq: 1, Kind: "lint", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j2", Seq: 2, Kind: "frobnicate", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j3", Seq: 3, Kind: "lint", Req: lintReq}))
	// A crash mid-append leaves a torn final line.
	buf.WriteString(`{"v":1,"op":"admit","job":"j4","seq":4,"ki`)
	if err := os.WriteFile(jpath, []byte(buf.String()), 0o666); err != nil {
		t.Fatal(err)
	}

	s, reg := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	waitDone(t, s, "j3")
	for name, want := range map[string]int64{
		"srv.journal.malformed":       1,
		"srv.journal.skipped_version": 1,
		"srv.journal.unsupported":     1,
		"srv.journal.replayed":        1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Compaction rewrote the journal as just the replayable admission (the
	// daemon then appends start/done for it as it runs).
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "frobnicate") || strings.Contains(string(data), `"j4"`) {
		t.Errorf("compacted journal still holds junk: %s", data)
	}
}

// TestJournalAppendFailureIsCountedNotFatal: an armed journal-append
// failpoint (a dying disk) must not fail the admission it was recording.
func TestJournalAppendFailureIsCountedNotFatal(t *testing.T) {
	defer runctl.DisarmAll()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s, reg := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	h := s.Handler()

	runctl.Arm(runctl.FPJournalAppend, 1, errors.New("injected disk death"))
	rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusOK {
		t.Fatalf("lint with dead journal = %d %s", rec.Code, rec.Body)
	}
	if got := reg.Counter("srv.journal.errors").Value(); got == 0 {
		t.Error("srv.journal.errors not incremented")
	}
}

// TestAdmitFailpointReturns503WithRetryAfter: the srv.admit failpoint
// surfaces exactly like real backpressure — a 503 carrying Retry-After.
func TestAdmitFailpointReturns503WithRetryAfter(t *testing.T) {
	defer runctl.DisarmAll()
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	runctl.Arm(FPAdmit, 1, errors.New("chaos-injected failure at srv.admit"))
	rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("armed admit = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	var body struct {
		RetryAfterSec int `json:"retry_after_sec"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.RetryAfterSec < 1 {
		t.Errorf("retry_after_sec = %d (err %v), want >= 1", body.RetryAfterSec, err)
	}

	// One-shot: the next submission sails through.
	rec = post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-failpoint lint = %d", rec.Code)
	}
}

// TestDebugFailpointEndpoint: gated off by default, arming works when on.
func TestDebugFailpointEndpoint(t *testing.T) {
	defer runctl.DisarmAll()
	plain, _ := newTestServer(t, Config{Workers: 1})
	if rec := post(t, plain.Handler(), "/debug/failpoints", `{"name":"srv.admit"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("debug endpoint without Debug = %d, want 404", rec.Code)
	}

	s, _ := newTestServer(t, Config{Workers: 1, Debug: true})
	h := s.Handler()
	if rec := post(t, h, "/debug/failpoints", `{"name":"srv.admit","mode":"error"}`); rec.Code != http.StatusOK {
		t.Fatalf("arm = %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("armed lint = %d, want 503", rec.Code)
	}
	if rec := post(t, h, "/debug/failpoints", `{"mode":"disarm-all"}`); rec.Code != http.StatusOK {
		t.Fatalf("disarm-all = %d", rec.Code)
	}
	if rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench)); rec.Code != http.StatusOK {
		t.Fatalf("post-disarm lint = %d", rec.Code)
	}
}

// TestWorkerFailpointPanicFailsOnlyThatJob: an armed worker panic is
// recovered into the job's error; the worker survives for the next job.
func TestWorkerFailpointPanicFailsOnlyThatJob(t *testing.T) {
	defer runctl.DisarmAll()
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	runctl.ArmPanic(FPWorker, 1, "chaos-injected panic at srv.worker")
	rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q,"nocache":true}`, tinyBench))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked job = %d %s, want 500", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "panic") {
		t.Errorf("error body lacks panic marker: %s", rec.Body)
	}
	rec = post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusOK {
		t.Fatalf("worker did not survive the panic: %d", rec.Code)
	}
}

// TestStoreReadFailpointServedByRecompute: an injected read fault is a
// miss, not an error — the job recomputes and the client still gets 200.
func TestStoreReadFailpointServedByRecompute(t *testing.T) {
	defer runctl.DisarmAll()
	st, err := store.Open(t.TempDir(), 0, obs.New(obs.NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 1, Store: st})
	h := s.Handler()
	body := fmt.Sprintf(`{"bench":%q}`, tinyBench)
	cold := post(t, h, "/v1/lint", body)
	if cold.Code != http.StatusOK {
		t.Fatal(cold.Code)
	}
	runctl.Arm(store.FPRead, 1, errors.New("chaos-injected failure at store.read"))
	warm := post(t, h, "/v1/lint", body)
	if warm.Code != http.StatusOK {
		t.Fatalf("read-fault request = %d", warm.Code)
	}
	if warm.Body.String() != cold.Body.String() {
		t.Error("recomputed bytes differ from cold bytes")
	}
}
