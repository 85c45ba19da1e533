package srv

import (
	"testing"

	"repro/internal/obs"
)

func qjob(client string, priority int, seq int64) *job {
	return &job{work: work{client: client, priority: priority}, id: "t", seq: seq}
}

// TestFairDequeueRoundRobinsClients: a client that floods the queue gets
// one slot per round, not the whole backlog — the interleaving is strict
// round-robin in client first-arrival order.
func TestFairDequeueRoundRobinsClients(t *testing.T) {
	q := newJobQueue(0, obs.NewRegistry().Gauge("depth"))
	// Client a floods; b and c each queue one job afterwards.
	for i := int64(1); i <= 4; i++ {
		if err := q.push(qjob("a", 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	q.push(qjob("b", 0, 5))
	q.push(qjob("c", 0, 6))

	var order []string
	var seqs []int64
	for i := 0; i < 6; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		order = append(order, j.client)
		seqs = append(seqs, j.seq)
	}
	want := []string{"a", "b", "c", "a", "a", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue clients = %v, want %v", order, want)
		}
	}
	// Within client a, FIFO: seqs 1,2,3,4 in that relative order.
	var aSeqs []int64
	for i, c := range order {
		if c == "a" {
			aSeqs = append(aSeqs, seqs[i])
		}
	}
	for i := 1; i < len(aSeqs); i++ {
		if aSeqs[i] < aSeqs[i-1] {
			t.Fatalf("client a not FIFO: %v", aSeqs)
		}
	}
}

// TestFairDequeuePriorityWithinClient: priority still reorders a single
// client's backlog; it does not let that client jump other clients.
func TestFairDequeuePriorityWithinClient(t *testing.T) {
	q := newJobQueue(0, obs.NewRegistry().Gauge("depth"))
	q.push(qjob("a", 0, 1))
	q.push(qjob("a", 9, 2)) // high priority, same client
	q.push(qjob("b", 0, 3))

	j1, _ := q.pop()
	if j1.client != "a" || j1.seq != 2 {
		t.Fatalf("first pop = %s/seq%d, want a's priority-9 job", j1.client, j1.seq)
	}
	j2, _ := q.pop()
	if j2.client != "b" {
		t.Fatalf("second pop = %s, want b (fair turn)", j2.client)
	}
	j3, _ := q.pop()
	if j3.client != "a" || j3.seq != 1 {
		t.Fatalf("third pop = %s/seq%d, want a's remaining job", j3.client, j3.seq)
	}
}

// TestForcePushBypassesBound: replayed jobs are admitted even when the
// configured bound would reject a fresh submission.
func TestForcePushBypassesBound(t *testing.T) {
	q := newJobQueue(1, obs.NewRegistry().Gauge("depth"))
	if err := q.push(qjob("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("a", 0, 2)); err != ErrQueueFull {
		t.Fatalf("second push = %v, want ErrQueueFull", err)
	}
	if err := q.forcePush(qjob("a", 0, 3)); err != nil {
		t.Fatalf("forcePush = %v", err)
	}
	if got := q.depthNow(); got != 2 {
		t.Fatalf("depth = %d, want 2", got)
	}
}
