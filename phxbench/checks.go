package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bulletin"
	"repro/internal/pws"
	"repro/internal/types"
)

// Correctness checks. Each has a name; a run's --corrupt flag names one
// check whose input the workload deliberately damages before checking,
// which is how the self-test proves every check can fail.
const (
	checkOps      = "ops-ok"           // every op attempted succeeds within its retry budget
	checkGet      = "get-row"          // Get returns the requested node's row, with the value written
	checkQuery    = "query-coverage"   // a cluster Query has every partition and no Missing
	checkRYW      = "read-your-writes" // a primary read sees every write acked before it was issued
	checkStale    = "replica-bound"    // a replica read is at most staleBound behind
	checkAudit    = "final-audit"      // after the drain every acked key reads at its last value or newer
	checkPWSCount = "pws-conservation" // accepted = completed + queued + running after the drain
	checkPWSShed  = "pws-service-shed" // no service submit is shed, no job fails
	checkFanin    = "fanin-order"      // each source's sequence numbers arrive once and in order
)

var allChecks = map[string][]string{
	"bulletin-read":  {checkOps, checkGet, checkQuery},
	"bulletin-write": {checkOps, checkGet, checkRYW, checkStale, checkAudit},
	"pws-jobs":       {checkOps, checkPWSCount, checkPWSShed},
	"wire-fanin":     {checkFanin},
}

// staleBound is how far behind the primary a replica read may be: ten
// delta flushes of the fast timing, far above the replication lag seen
// on loopback.
const staleBound = time.Second

// checker collects violations from any goroutine.
type checker struct {
	corrupt string
	mu      sync.Mutex
	counts  map[string]int
	first   []string
}

func newChecker(corrupt string) *checker {
	return &checker{corrupt: corrupt, counts: make(map[string]int)}
}

// sabotage reports whether the run was asked to damage this check's input.
func (c *checker) sabotage(check string) bool { return c.corrupt == check }

func (c *checker) fail(check, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[check]++
	if len(c.first) < 10 {
		c.first = append(c.first, check+": "+fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.counts) == 0
}

// failed lists the checks that tripped, sorted.
func (c *checker) failed() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k := range c.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// verifyQuery checks a cluster-scope query covers every partition.
func verifyQuery(ack bulletin.QueryAck, parts int) error {
	if len(ack.Missing) > 0 {
		return fmt.Errorf("partitions missing: %v", ack.Missing)
	}
	if len(ack.Snapshots) != parts {
		return fmt.Errorf("%d snapshots, want %d", len(ack.Snapshots), parts)
	}
	return nil
}

// verifyPWS checks job conservation and the service-never-shed rule at
// the end of a drain. accepted counts acked submits.
func verifyPWS(c *checker, st pws.StatAck, accepted, serviceShed int) {
	if got := st.Completed + st.Queued + st.Running; got != accepted {
		c.fail(checkPWSCount, "accepted %d != completed %d + queued %d + running %d",
			accepted, st.Completed, st.Queued, st.Running)
	}
	if serviceShed > 0 || st.Failed > 0 {
		c.fail(checkPWSShed, "%d service submits shed, %d jobs failed", serviceShed, st.Failed)
	}
}

// seqTracker checks per-source in-order, exactly-once delivery.
type seqTracker struct {
	mu   sync.Mutex
	next map[types.NodeID]uint64
	got  int64
}

func newSeqTracker() *seqTracker { return &seqTracker{next: make(map[types.NodeID]uint64)} }

func (s *seqTracker) deliver(c *checker, src types.NodeID, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if want := s.next[src]; seq != want {
		c.fail(checkFanin, "source %v delivered seq %d, want %d", src, seq, want)
		if seq < want {
			return
		}
	}
	s.next[src] = seq + 1
	s.got++
}

func (s *seqTracker) delivered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got
}
