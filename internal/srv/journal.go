package srv

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"

	"repro/internal/runctl"
)

// The job journal is append-only JSONL, one record per line, each line
// fsync'd before the state transition it records is acknowledged (see
// runctl.AppendFile for the durability discipline). Three ops:
//
//	admit — the job was accepted onto the queue; carries everything replay
//	        needs to rebuild it: the request JSON, client, seq, kind.
//	start — a worker picked the job up. Informational: replay treats a
//	        started-but-not-done job exactly like a queued one (its ATPG
//	        checkpoint, if any, carries the partial progress).
//	done  — the job completed (ok or failed on its own). Never replayed.
//
// Replay is two-pass (collect, then diff) so record interleavings from
// concurrent workers never confuse it, and it degrades line by line: a
// torn final record from a mid-append crash, an unknown record version
// from a different build, or a job kind this binary can't rebuild are
// each counted and skipped — never a panic, never a refusal to start.
// After replay the journal is compacted down to just the still-pending
// admissions (atomically, via WriteFileAtomic), so it grows with crash
// frequency, not daemon lifetime.
const journalVersion = 1

const (
	opAdmit = "admit"
	opStart = "start"
	opDone  = "done"
)

// journalRecord is one JSONL line.
type journalRecord struct {
	V      int             `json:"v"`
	Op     string          `json:"op"`
	Job    string          `json:"job"`
	Seq    int64           `json:"seq,omitempty"`
	Kind   string          `json:"kind,omitempty"`
	Key    string          `json:"key,omitempty"` // content address, for humans and debugging
	Client string          `json:"client,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"` // verbatim request envelope; replay's input
	OK     bool            `json:"ok,omitempty"`
	Err    string          `json:"err,omitempty"`
}

// appendJournal fsyncs one record; a no-op without a journal. Failures
// are counted, not fatal: a dying disk degrades replay coverage, and
// refusing to serve because of it would turn one failure into two.
func (s *Server) appendJournal(rec journalRecord) {
	s.mu.Lock()
	jf := s.journal
	s.mu.Unlock()
	if jf == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		s.cJournalErrs.Inc()
		return
	}
	if err := jf.Append(b); err != nil {
		s.cJournalErrs.Inc()
	}
}

// replayJournal reads the journal at path, re-enqueues every admitted-
// but-unfinished job, and compacts the file down to those admissions.
// Called from New before the worker pool starts and before the journal
// is reopened for appending.
func (s *Server) replayJournal(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return // first boot (or unreadable journal: nothing to recover)
	}
	admits := make(map[string]journalRecord)
	finished := make(map[string]bool)
	var maxSeq int64
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// The torn-final-record case from a crash mid-append lands here,
			// as does any other garbling: the line is skipped, the records
			// around it still count.
			s.cJournalMalformed.Inc()
			continue
		}
		if rec.V != journalVersion {
			s.cJournalSkipped.Inc()
			continue
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		switch rec.Op {
		case opAdmit:
			if _, dup := admits[rec.Job]; !dup {
				admits[rec.Job] = rec
			}
		case opDone:
			finished[rec.Job] = true
		case opStart:
			// progress marker only
		default:
			s.cJournalMalformed.Inc()
		}
	}
	// New ids must never collide with journaled ones, even for jobs we end
	// up unable to replay.
	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	s.mu.Unlock()

	var pending []journalRecord
	for id, rec := range admits {
		if !finished[id] {
			pending = append(pending, rec)
		}
	}
	// Original admission order, so replayed FIFO ties break as they did.
	sort.Slice(pending, func(i, j int) bool { return pending[i].Seq < pending[j].Seq })

	var kept []journalRecord
	for _, rec := range pending {
		if len(rec.Req) == 0 {
			s.cJournalDropped.Inc() // direct submit or stripped record: nothing to rebuild from
			continue
		}
		wk, werr := replayWork(s, rec.Kind, rec.Req)
		if werr != nil {
			s.cJournalDropped.Inc()
			continue
		}
		wk.client = rec.Client
		wk.reqJSON = rec.Req
		// Original id and seq, so original trace: a client re-polling
		// /v1/jobs/{id} across the restart sees the job it was given.
		s.mu.Lock()
		j := s.newJobLocked(wk, rec.Job, rec.Seq)
		s.mu.Unlock()
		if s.enqueue(j, true) == nil {
			kept = append(kept, rec)
			s.cJournalReplayed.Inc()
		}
	}

	// Compact: the new journal is exactly the admissions still owed, so
	// their records survive a crash during THIS life too.
	var buf bytes.Buffer
	for _, rec := range kept {
		b, merr := json.Marshal(rec)
		if merr != nil {
			continue
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := runctl.WriteFileAtomic(path, buf.Bytes()); err != nil {
		s.cJournalErrs.Inc()
	}
}
