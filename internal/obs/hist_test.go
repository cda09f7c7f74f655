package obs

import "testing"

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 32, 32}, {1 << 40, 32},
	}
	for _, c := range cases {
		if got := BucketOf(c.ns); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h LatencyHist
	// 90 fast samples (<= 1024 ns), 10 slow ones (~1 ms).
	h.Observe(900, 90)
	h.Observe(1_000_000, 10)
	b, count, sum := h.Snapshot()
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if want := uint64(90*900 + 10*1_000_000); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if p50 := HistQuantile(b, count, 0.50); p50 != 1024 {
		t.Errorf("p50 = %d, want 1024", p50)
	}
	if p99 := HistQuantile(b, count, 0.99); p99 != 1<<20 {
		t.Errorf("p99 = %d, want %d", p99, 1<<20)
	}
	if z := HistQuantile([HistBuckets]uint64{}, 0, 0.99); z != 0 {
		t.Errorf("empty quantile = %d, want 0", z)
	}
	// The median of three samples is the second one (nearest rank).
	var h3 LatencyHist
	h3.Observe(1, 1)
	h3.Observe(4, 2)
	if b, count, _ := h3.Snapshot(); HistQuantile(b, count, 0.50) != 4 {
		t.Errorf("p50 of {1, 4, 4} = %d, want 4", HistQuantile(b, count, 0.50))
	}
}
