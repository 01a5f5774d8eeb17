package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hpxgo/internal/core"
)

// testService builds a started 3-locality runtime (locality 0 = client-only
// driver, 1 and 2 own the ring) with the given serve config.
func testService(t *testing.T, cfg Config) (*core.Runtime, *Service) {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Localities:         3,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		Aggregation:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Owners) == 0 {
		cfg.Owners = []int{1, 2}
	}
	svc, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, svc
}

// TestServeGetPutDel: the basic lifecycle through a remote client.
func TestServeGetPutDel(t *testing.T) {
	_, svc := testService(t, Config{})
	c := svc.Client(0)
	if _, found, err := c.Get("nope"); err != nil || found {
		t.Fatalf("Get(missing) = found=%v err=%v", found, err)
	}
	if err := c.Put("k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("k")
	if err != nil || !found || string(v) != "v0" {
		t.Fatalf("Get = %q found=%v err=%v", v, found, err)
	}
	if err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v1" {
		t.Fatalf("Get after Put = %q, want v1", v)
	}
	if err := c.Del("k"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get("k"); found {
		t.Fatal("Get after Del found the key")
	}
	st := svc.Stats()
	if st.Served == 0 || st.Puts != 2 {
		t.Fatalf("service stats %+v", st)
	}
}

// TestServeCacheHitServesLocally: the second Get of a key must be a cache
// hit — no new shard call.
func TestServeCacheHitServesLocally(t *testing.T) {
	_, svc := testService(t, Config{})
	c := svc.Client(0)
	if err := c.Put("hot", []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for i := 0; i < 100; i++ {
		if _, found, err := c.Get("hot"); err != nil || !found {
			t.Fatalf("Get #%d: found=%v err=%v", i, found, err)
		}
	}
	d := c.Stats()
	if calls := d.ShardCalls - before.ShardCalls; calls != 0 {
		t.Fatalf("%d shard calls for a write-through-cached key", calls)
	}
	if hits := d.CacheHits - before.CacheHits; hits != 100 {
		t.Fatalf("cache hits = %d, want 100", hits)
	}
}

// TestServeSingleFlight: a burst of concurrent Gets for one uncached key
// must issue exactly one shard call; everyone gets the value.
func TestServeSingleFlight(t *testing.T) {
	_, svc := testService(t, Config{})
	c := svc.Client(0)
	// Preload without touching the client cache.
	svc.Preload([]string{"burst"}, []byte("payload"))

	// Hold the key's store stripe on its owner, so the leader's shard GET
	// cannot complete — and fill the cache — until every other Get has
	// found its flight. Without it a fast fill often finishes before the
	// rest of the burst is scheduled, and they hit the cache instead.
	h := hashKey("burst")
	stripe := svc.stores[svc.ring.Owner(h)].stripe(h)
	stripe.mu.Lock()
	unlock := sync.OnceFunc(stripe.mu.Unlock)
	defer unlock()

	const burst = 64
	var wg sync.WaitGroup
	errs := make([]error, burst)
	vals := make([][]byte, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, found, err := c.Get("burst")
			if err == nil && !found {
				err = errors.New("not found")
			}
			vals[i], errs[i] = v, err
		}(i)
	}
	for deadline := time.Now().Add(30 * time.Second); c.coalesced.Load() < burst-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers reached the flight", c.coalesced.Load(), burst-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	unlock()
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("Get #%d: %v", i, errs[i])
		}
		if string(vals[i]) != "payload" {
			t.Fatalf("Get #%d = %q", i, vals[i])
		}
	}
	st := c.Stats()
	if st.ShardCalls != 1 || st.Coalesced != burst-1 {
		t.Fatalf("hot-miss burst of %d issued %d shard calls and coalesced %d, want exactly 1 and %d",
			burst, st.ShardCalls, st.Coalesced, burst-1)
	}
}

// TestServeNoStaleReadAfterPut: interleave Gets of a key with Puts through
// the same client; after every Put returns, a Get must never see the
// overwritten value (write-through + version gating).
func TestServeNoStaleReadAfterPut(t *testing.T) {
	_, svc := testService(t, Config{})
	c := svc.Client(0)
	key := "coherent"
	if err := c.Put(key, []byte{0}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Background readers keep the key hot (and racing with the writer).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _, _ = c.Get(key)
				}
			}
		}()
	}
	for gen := byte(1); gen < 100; gen++ {
		if err := c.Put(key, []byte{gen}); err != nil {
			t.Fatal(err)
		}
		// The Put has returned: no Get may see a value older than gen.
		for i := 0; i < 5; i++ {
			v, found, err := c.Get(key)
			if err != nil || !found {
				t.Fatalf("gen %d: found=%v err=%v", gen, found, err)
			}
			if v[0] < gen {
				t.Fatalf("stale read after Put: saw gen %d after writing gen %d", v[0], gen)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestServeDelInvalidates: a cached key must not survive its deletion
// through the same client.
func TestServeDelInvalidates(t *testing.T) {
	_, svc := testService(t, Config{})
	c := svc.Client(0)
	if err := c.Put("gone", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get("gone"); !found {
		t.Fatal("warm-up Get missed")
	}
	if err := c.Del("gone"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get("gone"); found {
		t.Fatal("Get served a deleted key from cache")
	}
}

// TestServeAdmissionSheds: a shard bucket tighter than the offered load
// must shed with statusShed→ErrShed, and the shed counter must move.
func TestServeAdmissionSheds(t *testing.T) {
	_, svc := testService(t, Config{
		CacheEntries: -1, // cache off: every Get goes to the shard
		AdmitRate:    200,
		AdmitBurst:   4,
	})
	c := svc.Client(0)
	svc.Preload(KeySet(32), []byte("v"))
	keys := KeySet(32)
	var shed, ok int
	for i := 0; i < 400; i++ {
		_, found, err := c.Get(keys[i%len(keys)])
		switch {
		case errors.Is(err, ErrShed):
			shed++
		case err == nil && found:
			ok++
		case err != nil:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatalf("no sheds from a 200/s bucket under a tight loop (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("everything shed: bucket admits nothing")
	}
	if svc.Stats().Shed == 0 {
		t.Fatal("server shed counter did not move")
	}
}

// TestServeBackpressureSheds: MaxOutstanding=1 with concurrent misses must
// trip the client-side queue-depth bound.
func TestServeBackpressureSheds(t *testing.T) {
	_, svc := testService(t, Config{
		CacheEntries:   -1,
		MaxOutstanding: 1,
	})
	c := svc.Client(0)
	keys := KeySet(64)
	svc.Preload(keys, []byte("v"))
	var wg sync.WaitGroup
	var mu sync.Mutex
	backpressured := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _, err := c.Get(keys[(g*50+i)%len(keys)])
				if errors.Is(err, ErrBackpressure) {
					mu.Lock()
					backpressured++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if backpressured == 0 {
		t.Fatal("MaxOutstanding=1 never backpressured 8 concurrent clients")
	}
}

// TestServeLocalOwnerFastPath: a client on an owning locality serves its
// own keys without any shard call.
func TestServeLocalOwnerFastPath(t *testing.T) {
	_, svc := testService(t, Config{})
	c1 := svc.Client(1)
	// Find a key locality 1 owns.
	var own string
	for i := 0; ; i++ {
		k := keyName(i)
		if svc.Ring().KeyOwner(k) == 1 {
			own = k
			break
		}
	}
	if err := c1.Put(own, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c1.Get(own)
	if err != nil || !found || string(v) != "mine" {
		t.Fatalf("local Get = %q found=%v err=%v", v, found, err)
	}
	st := c1.Stats()
	if st.ShardCalls != 0 {
		t.Fatalf("local-owner path issued %d shard calls", st.ShardCalls)
	}
	if st.LocalHits == 0 {
		t.Fatal("local hit counter did not move")
	}
}

// TestServeLoadSmoke: a small open-loop run completes with sane stats and
// a high hit rate on the Zipf mix.
func TestServeLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke in -short mode")
	}
	_, svc := testService(t, Config{})
	svc.Preload(KeySet(128), []byte("warm"))
	res, err := RunLoad(svc, 0, LoadParams{
		Clients: 32, Total: 2000, Keys: 128, Zipf: true,
		Rate: 50e3, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.SplitShed != res.Offered {
		t.Fatalf("accounting: offered %d != completed %d + shed %d",
			res.Offered, res.Completed, res.SplitShed)
	}
	if res.Throughput <= 0 || res.P99Us <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.HitRate < 0.3 {
		t.Fatalf("Zipf hit rate %.2f implausibly low", res.HitRate)
	}
	// The log2-bucket estimate must bracket the exact p99 within its
	// factor-of-2 resolution.
	if res.HistP99Us > 0 && (res.HistP99Us < res.P99Us/2.1 || res.HistP99Us > res.P99Us*2.1) {
		t.Fatalf("Hist p99 %.1fµs vs exact %.1fµs outside bucket resolution", res.HistP99Us, res.P99Us)
	}
}

// TestServeNoStaleFillAfterEviction: read-your-writes across an eviction.
// A fill reads the shard before a Put, and its reply is installed only
// after the Put's write-through entry has been evicted: it must not put the
// older value back, or the writer's next Get hits it. The shard's GET is
// held between its read and its reply to force that order.
func TestServeNoStaleFillAfterEviction(t *testing.T) {
	rt, err := core.NewRuntime(core.Config{Localities: 3, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(rt, Config{Owners: []int{1, 2}, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	read, release := make(chan struct{}, 1), make(chan struct{})
	heldGet := rt.MustRegisterAction("held_get", func(loc *core.Locality, args [][]byte) [][]byte {
		res := svc.actGet(loc, args)
		read <- struct{}{}
		<-release
		return res
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	c := svc.Client(0)
	const key = "target"
	evict := func() {
		for i := 0; i < 2*cacheWays; i++ {
			c.cache.install(string(rune('a'+i)), hashKey(string(rune('a'+i))), nil, 1, false)
		}
		if _, _, hit := c.cache.lookup(key, hashKey(key)); hit {
			t.Fatal("key still cached after the set was churned")
		}
	}
	if err := c.Put(key, []byte{1}); err != nil {
		t.Fatal(err)
	}
	evict()

	getID := svc.getID
	svc.getID = heldGet
	fillDone := make(chan []byte)
	go func() {
		v, _, _ := c.Get(key)
		fillDone <- v
	}()
	<-read // the fill has read {1} at the shard
	if err := c.Put(key, []byte{2}); err != nil {
		t.Fatal(err)
	}
	evict()
	close(release)
	if v := <-fillDone; len(v) != 1 || v[0] != 1 {
		t.Fatalf("held fill returned %v, want [1]", v)
	}
	svc.getID = getID

	v, found, err := c.Get(key)
	if err != nil || !found || len(v) != 1 {
		t.Fatalf("Get after Put: %v found=%v err=%v", v, found, err)
	}
	if v[0] != 2 {
		t.Fatalf("stale read after Put: saw %d after writing 2", v[0])
	}
}
