package repro

import (
	"fmt"
	"testing"
)

// BenchmarkLiveSOC1PerCoreParallel measures the live SOC1 experiment with
// its jobs, five per-core ATPG runs and the monolithic one, run serially
// vs on a worker pool. The jobs are independent, so on a multi-core host
// the wall clock approaches the slowest job; on one CPU the pool only
// adds scheduling overhead.
func BenchmarkLiveSOC1PerCoreParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LiveSOC1(LiveOptions{GateScale: 0.35, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveSOC2 runs the full-scale live SOC2 experiment on a
// two-worker pool. Run with -benchmem: B/op is what the generation,
// per-core and monolithic ATPG working sets allocate per experiment.
func BenchmarkLiveSOC2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LiveSOC2(LiveOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
