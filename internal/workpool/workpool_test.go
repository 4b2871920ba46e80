package workpool

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunFeedsEachIndexOnce pins the pool's contract at every worker count:
// each index runs exactly once and the fed count is n.
func TestRunFeedsEachIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 3, 8, 200} {
		var seen [n]atomic.Int32
		if fed := Run(context.Background(), workers, n, func(i int) { seen[i].Add(1) }); fed != n {
			t.Errorf("workers=%d: fed %d, want %d", workers, fed, n)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestRunStopsFeedingOnCancel: once ctx is done no further index is fed,
// and the returned count is exactly the number of items that ran.
func TestRunStopsFeedingOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		fed := Run(ctx, workers, 1000, func(i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		if fed >= 1000 || int32(fed) != ran.Load() {
			t.Errorf("workers=%d: fed %d, ran %d", workers, fed, ran.Load())
		}
	}
}
