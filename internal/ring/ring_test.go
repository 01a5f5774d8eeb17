package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestRingBasic(t *testing.T) {
	r := New[int](4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push to full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
}

func TestRingCapacityRoundsUp(t *testing.T) {
	r := New[int](5)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
}

func TestRingWrapAround(t *testing.T) {
	r := New[int](4)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.TryPush(round*10 + i) {
				t.Fatalf("push failed at round %d", round)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.TryPop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: pop = (%d,%v)", round, v, ok)
			}
		}
	}
}

func TestRingLen(t *testing.T) {
	r := New[int](8)
	if r.Len() != 0 {
		t.Fatalf("empty Len = %d", r.Len())
	}
	r.TryPush(1)
	r.TryPush(2)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.TryPop()
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRingConcurrentMPMC(t *testing.T) {
	r := New[int](64)
	const producers, perProducer = 4, 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !r.TryPush(p*perProducer + i) {
					runtime.Gosched() // ring full: let consumers run
				}
			}
		}(p)
	}
	var consumed sync.Map
	var total sync.WaitGroup
	var count int64
	var countMu sync.Mutex
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		total.Add(1)
		go func() {
			defer total.Done()
			for {
				if v, ok := r.TryPop(); ok {
					if _, dup := consumed.LoadOrStore(v, true); dup {
						t.Errorf("duplicate value %d", v)
					}
					countMu.Lock()
					count++
					countMu.Unlock()
					continue
				}
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	for {
		countMu.Lock()
		c := count
		countMu.Unlock()
		if c == producers*perProducer {
			break
		}
		runtime.Gosched()
	}
	close(done)
	total.Wait()
}

func TestRingPropertyFIFOSingleThread(t *testing.T) {
	f := func(vals []uint16) bool {
		r := New[uint16](1024)
		if len(vals) > 1024 {
			vals = vals[:1024]
		}
		for _, v := range vals {
			if !r.TryPush(v) {
				return false
			}
		}
		for _, want := range vals {
			got, ok := r.TryPop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.TryPop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := New[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TryPush(i)
		r.TryPop()
	}
}
