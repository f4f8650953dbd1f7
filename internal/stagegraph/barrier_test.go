package stagegraph

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPartition(t *testing.T) {
	// Ranges must tile [0, total) in order.
	for _, c := range []struct{ total, workers int }{
		{10, 3}, {7, 7}, {3, 5}, {0, 2}, {100, 1}, {16, 4},
	} {
		prev := 0
		for w := 0; w < c.workers; w++ {
			lo, hi := Partition(c.total, w, c.workers)
			if lo != prev {
				t.Fatalf("Partition(%d,%d,%d): lo=%d, want %d", c.total, w, c.workers, lo, prev)
			}
			if hi < lo {
				t.Fatalf("Partition(%d,%d,%d): hi<lo", c.total, w, c.workers)
			}
			prev = hi
		}
		if prev != c.total {
			t.Fatalf("Partition(%d,·,%d) does not cover total", c.total, c.workers)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Partition accepted invalid worker index")
			}
		}()
		Partition(4, 3, 3)
		Partition(4, 4, 3)
	}()
}

// Property: Partition tiles [0, total) exactly, in order, with sizes
// differing by at most one.
func TestQuickPartitionTiles(t *testing.T) {
	f := func(rawTotal uint16, rawWorkers uint8) bool {
		total := int(rawTotal) % 5000
		workers := int(rawWorkers)%32 + 1
		prev := 0
		minSz, maxSz := 1<<30, -1
		for w := 0; w < workers; w++ {
			lo, hi := Partition(total, w, workers)
			if lo != prev || hi < lo {
				return false
			}
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = hi
		}
		return prev == total && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReuse(t *testing.T) {
	const parties, rounds = 5, 50
	b := NewBarrier(parties)
	var phase atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, parties*rounds)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cur := phase.Load()
				if int(cur) > r {
					errs <- "goroutine observed a future phase before its barrier"
					return
				}
				b.Wait()
				phase.CompareAndSwap(int64(r), int64(r+1))
				b.Wait()
			}
		}()
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if phase.Load() != rounds {
		t.Fatalf("phase = %d, want %d", phase.Load(), rounds)
	}
}

func TestBarrierAbortUnblocksWaiters(t *testing.T) {
	b := NewBarrier(3)
	results := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() { results <- b.Wait() }()
	}
	time.Sleep(10 * time.Millisecond) // let both block
	b.Abort()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-results:
			if ok {
				t.Fatal("aborted barrier reported success")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("abort did not unblock waiters")
		}
	}
	// Subsequent waits fail fast.
	if b.Wait() {
		t.Fatal("wait on aborted barrier succeeded")
	}
}
