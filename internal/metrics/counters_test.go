package metrics

import (
	"sync"
	"testing"
)

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.JobSubmitted()
	c.JobDone()
	c.JobFailed()
	c.JobCancelled()
	c.QueryExecuted()
	c.DispatchBatch(5)
	if snap := c.Snapshot(); snap != (CounterSnapshot{}) {
		t.Errorf("nil counters snapshot = %+v", snap)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const workers, per = 8, 100
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.JobSubmitted()
				c.JobDone()
				c.QueryExecuted()
				c.DispatchBatch(3)
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	want := int64(workers * per)
	if snap.JobsSubmitted != want || snap.JobsDone != want || snap.Queries != want {
		t.Errorf("snapshot = %+v, want %d each", snap, want)
	}
	if snap.DispatchBatches != want || snap.DispatchCalls != 3*want {
		t.Errorf("dispatch counters = %+v", snap)
	}
}

func TestSnapshotReadsOwnedFields(t *testing.T) {
	c := NewCounters(func(s *CounterSnapshot) {
		s.LabelCacheEvictions = 7
		s.StorageMappedBytes = 9
	})
	c.QueryExecuted()
	c.OracleRetries(2)
	snap := c.Snapshot()
	if snap.Queries != 1 || snap.OracleRetries != 2 {
		t.Errorf("recorded totals = %+v, want 1 query and 2 retries", snap)
	}
	if snap.LabelCacheEvictions != 7 || snap.StorageMappedBytes != 9 {
		t.Errorf("owned fields = %+v, want the values the read function filled", snap)
	}
}
