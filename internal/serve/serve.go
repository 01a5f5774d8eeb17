package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/core"
)

// Wire status codes of the shard reply header (1 status byte + 8 version
// bytes, then the value for a found GET).
const (
	statusOK       = 0
	statusNotFound = 1
	statusShed     = 2
)

// ErrShed is returned when the owning shard's token bucket rejected the
// request (server-side admission control).
var ErrShed = errors.New("serve: shed by shard admission control")

// ErrBackpressure is returned when the client's queue-depth bound for the
// destination shard is reached (client-side backpressure): the request was
// never sent.
var ErrBackpressure = errors.New("serve: destination shard backpressured")

// ErrTimeout is returned when a shard call exceeded Config.CallTimeout.
var ErrTimeout = errors.New("serve: shard call timed out")

// Config tunes one Service.
type Config struct {
	// Owners lists the shard-owning localities. Empty means every locality
	// owns a slice of the ring; a load-generator locality is usually left
	// out so all its traffic is remote.
	Owners []int
	// CacheEntries sizes each client's hot-key cache (rounded up to a
	// power-of-two set count). Zero selects the default (4096); negative
	// disables both the cache and single-flight coalescing — the
	// "cache-off" baseline the serving benchmark gates against.
	CacheEntries int
	// AdmitRate is the per-shard token-bucket rate in requests/second
	// (0 = admission disabled).
	AdmitRate float64
	// AdmitBurst is the bucket depth in requests (default 64 when AdmitRate
	// is set).
	AdmitBurst int
	// MaxOutstanding bounds in-flight requests per (client, shard) pair;
	// above it Get/Put fail fast with ErrBackpressure (default 256).
	MaxOutstanding int
	// CallTimeout bounds one shard call (default 30s).
	CallTimeout time.Duration
}

func (c *Config) fillDefaults(localities int) {
	if len(c.Owners) == 0 {
		c.Owners = make([]int, localities)
		for i := range c.Owners {
			c.Owners[i] = i
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = 64
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 256
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
}

// storeVal is one key's current binding: an immutable value slice plus the
// per-key write version (1 on first write). Versions order write-throughs
// against in-flight fills in the client cache and prove exactly-once write
// application under fault chaos (chaos_test.go).
type storeVal struct {
	val []byte
	ver uint64
}

// storeStripe is one lock stripe of a shard store.
type storeStripe struct {
	mu sync.RWMutex
	m  map[string]storeVal
}

// store is one locality's shard: a striped map plus the admission bucket
// and the served/shed counters.
type store struct {
	stripes [storeStripes]storeStripe
	bucket  tokenBucket
	served  atomic.Uint64
	shed    atomic.Uint64
	puts    atomic.Uint64
}

// storeStripes is the lock-stripe count of a shard store; ringVNodes the
// consistent-hash points each owner contributes to the ring.
const (
	storeStripes = 16
	ringVNodes   = 64
)

func newStore() *store {
	s := &store{}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]storeVal)
	}
	return s
}

func (s *store) stripe(h uint64) *storeStripe {
	return &s.stripes[h%storeStripes]
}

func (s *store) get(key string, h uint64) ([]byte, uint64, bool) {
	st := s.stripe(h)
	st.mu.RLock()
	sv, ok := st.m[key]
	st.mu.RUnlock()
	return sv.val, sv.ver, ok
}

// put stores a private copy of val and returns the new version.
func (s *store) put(key string, h uint64, val []byte) uint64 {
	cp := make([]byte, len(val))
	copy(cp, val)
	st := s.stripe(h)
	st.mu.Lock()
	sv := st.m[key]
	sv.ver++
	sv.val = cp
	st.m[key] = sv
	st.mu.Unlock()
	s.puts.Add(1)
	return sv.ver
}

// del removes key, returning the version the deletion supersedes + 1 (the
// floor a cache tombstone must carry so older fills cannot resurrect it).
func (s *store) del(key string, h uint64) uint64 {
	st := s.stripe(h)
	st.mu.Lock()
	sv, ok := st.m[key]
	var ver uint64
	if ok {
		ver = sv.ver + 1
		delete(st.m, key)
	}
	st.mu.Unlock()
	return ver
}

// keys returns the number of live keys (tests, stats).
func (s *store) keys() int {
	n := 0
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		n += len(s.stripes[i].m)
		s.stripes[i].mu.RUnlock()
	}
	return n
}

// ServiceStats aggregates server-side counters across all shards.
type ServiceStats struct {
	Served uint64 // requests admitted and executed
	Shed   uint64 // requests rejected by the token bucket
	Puts   uint64 // writes applied
	Keys   int    // live keys across all shards
}

// Service is the sharded KV tier bound to one runtime: the ring, one shard
// store per owning locality, one client per locality, and the three
// registered actions (__serve_get/__serve_put/__serve_del). Build it with
// New before Runtime.Start (action registration seals then).
type Service struct {
	rt      *core.Runtime
	cfg     Config
	ring    *Ring
	isOwner []bool
	stores  []*store // indexed by locality id; nil for non-owners
	clients []*Client
	epoch   time.Time

	getID, putID, delID uint32
}

// New registers the service's actions on rt and builds the shard stores and
// per-locality clients. Must run before rt.Start.
func New(rt *core.Runtime, cfg Config) (*Service, error) {
	cfg.fillDefaults(rt.Localities())
	ring, err := NewRing(cfg.Owners, ringVNodes)
	if err != nil {
		return nil, err
	}
	s := &Service{
		rt:      rt,
		cfg:     cfg,
		ring:    ring,
		isOwner: make([]bool, rt.Localities()),
		stores:  make([]*store, rt.Localities()),
		epoch:   time.Now(),
	}
	for _, o := range cfg.Owners {
		if o < 0 || o >= rt.Localities() {
			return nil, fmt.Errorf("serve: owner %d out of range (localities %d)", o, rt.Localities())
		}
		s.isOwner[o] = true
		st := newStore()
		st.bucket.init(cfg.AdmitRate, cfg.AdmitBurst)
		s.stores[o] = st
	}
	s.clients = make([]*Client, rt.Localities())
	for i := range s.clients {
		s.clients[i] = &Client{
			svc:         s,
			loc:         rt.Locality(i),
			cache:       newCache(cfg.CacheEntries),
			flights:     make(map[string]*flight),
			outstanding: make([]atomic.Int64, rt.Localities()),
		}
	}
	// The shard actions are inline-hinted: each is a striped-lock map probe
	// plus a token-bucket CAS — small, non-blocking, and faster to run on
	// the draining goroutine than to hand off to a spawned task.
	if s.getID, err = rt.RegisterInlineAction("__serve_get", s.actGet); err != nil {
		return nil, err
	}
	if s.putID, err = rt.RegisterInlineAction("__serve_put", s.actPut); err != nil {
		return nil, err
	}
	if s.delID, err = rt.RegisterInlineAction("__serve_del", s.actDel); err != nil {
		return nil, err
	}
	return s, nil
}

// nowNs is the monotonic clock the admission buckets run on.
func (s *Service) nowNs() int64 { return int64(time.Since(s.epoch)) }

// Ring exposes the hash ring (stats, tests).
func (s *Service) Ring() *Ring { return s.ring }

// Client returns locality i's client handle.
func (s *Service) Client(i int) *Client { return s.clients[i] }

// Stats aggregates the server-side counters.
func (s *Service) Stats() ServiceStats {
	var st ServiceStats
	for _, sh := range s.stores {
		if sh == nil {
			continue
		}
		st.Served += sh.served.Load()
		st.Shed += sh.shed.Load()
		st.Puts += sh.puts.Load()
		st.Keys += sh.keys()
	}
	return st
}

// Preload writes key→val bindings straight into the owning shard stores,
// bypassing the network (benchmark setup). Values are copied. Safe only
// before load is applied.
func (s *Service) Preload(keys []string, val []byte) {
	for _, k := range keys {
		h := hashKey(k)
		st := s.stores[s.ring.Owner(h)]
		st.put(k, h, val)
	}
}

// shedReply is the preallocated statusShed reply header. Immutable;
// shared across all shed responses so shedding under overload costs no
// allocation beyond the reply parcel itself.
var shedReply = [][]byte{{statusShed, 0, 0, 0, 0, 0, 0, 0, 0}}

// replyHeader encodes status+version.
func replyHeader(status byte, ver uint64) []byte {
	hdr := make([]byte, 9)
	hdr[0] = status
	binary.LittleEndian.PutUint64(hdr[1:], ver)
	return hdr
}

// actGet serves __serve_get: args[0] = key. Reply: [status|ver] (+ value
// when found). Admission runs first so an overloaded shard sheds at one
// token-bucket CAS per rejected request.
func (s *Service) actGet(loc *core.Locality, args [][]byte) [][]byte {
	st := s.stores[loc.ID()]
	if st == nil || len(args) < 1 {
		return [][]byte{replyHeader(statusNotFound, 0)}
	}
	if !st.bucket.take(s.nowNs()) {
		st.shed.Add(1)
		return shedReply
	}
	st.served.Add(1)
	key := string(args[0])
	val, ver, ok := st.get(key, hashKey(key))
	if !ok {
		return [][]byte{replyHeader(statusNotFound, 0)}
	}
	return [][]byte{replyHeader(statusOK, ver), val}
}

// actPut serves __serve_put: args[0] = key, args[1] = value. Reply:
// [status|newVersion].
func (s *Service) actPut(loc *core.Locality, args [][]byte) [][]byte {
	st := s.stores[loc.ID()]
	if st == nil || len(args) < 2 {
		return [][]byte{replyHeader(statusNotFound, 0)}
	}
	if !st.bucket.take(s.nowNs()) {
		st.shed.Add(1)
		return shedReply
	}
	st.served.Add(1)
	key := string(args[0])
	ver := st.put(key, hashKey(key), args[1])
	return [][]byte{replyHeader(statusOK, ver)}
}

// actDel serves __serve_del: args[0] = key. Reply: [status|floorVersion].
func (s *Service) actDel(loc *core.Locality, args [][]byte) [][]byte {
	st := s.stores[loc.ID()]
	if st == nil || len(args) < 1 {
		return [][]byte{replyHeader(statusNotFound, 0)}
	}
	if !st.bucket.take(s.nowNs()) {
		st.shed.Add(1)
		return shedReply
	}
	st.served.Add(1)
	key := string(args[0])
	ver := st.del(key, hashKey(key))
	if ver == 0 {
		return [][]byte{replyHeader(statusNotFound, 0)}
	}
	return [][]byte{replyHeader(statusOK, ver)}
}

// flight is one in-flight shard GET that followers piggyback on: the
// single-flight slot. The leader fills val/ver/err and closes done. void
// (guarded by Client.fmu) is set by a write to the key that completed while
// the GET was out; see voidFlight.
type flight struct {
	done chan struct{}
	val  []byte
	ver  uint64
	ok   bool // found
	err  error
	void bool
}

// ClientStats snapshots a client's counters.
type ClientStats struct {
	CacheHits  uint64
	LocalHits  uint64 // keys owned by this locality, served off the local store
	ShardCalls uint64 // remote GET fills actually issued
	Coalesced  uint64 // GETs absorbed by an in-flight fill (single-flight)
	Shed       uint64 // ErrShed + ErrBackpressure outcomes
	Puts       uint64
}

// Client is one locality's handle on the service: the hot-key cache, the
// single-flight table and the per-destination outstanding gauges. Safe for
// concurrent use by any number of goroutines on its locality.
type Client struct {
	svc         *Service
	loc         *core.Locality
	cache       *Cache
	fmu         sync.Mutex
	flights     map[string]*flight
	outstanding []atomic.Int64

	cacheHits  atomic.Uint64
	localHits  atomic.Uint64
	shardCalls atomic.Uint64
	coalesced  atomic.Uint64
	shed       atomic.Uint64
	puts       atomic.Uint64
}

// Get returns the value bound to key. The fast path — a cache hit — is
// lock-free and allocation-free. Misses coalesce: concurrent Gets of the
// same missing key issue exactly one shard call (single-flight), and every
// caller shares its result. found is false for unknown keys. The returned
// slice is shared and must not be mutated.
func (c *Client) Get(key string) (val []byte, found bool, err error) {
	h := hashKey(key)
	owner := c.svc.ring.Owner(h)
	if owner == c.loc.ID() {
		// Locally-owned key: straight off the shard store. No cache — the
		// store read is already one striped RLock away.
		val, _, ok := c.svc.stores[owner].get(key, h)
		c.localHits.Add(1)
		return val, ok, nil
	}
	if v, _, ok := c.cache.lookup(key, h); ok {
		c.cacheHits.Add(1)
		return v, true, nil
	}
	if c.cache == nil {
		// Cache-off baseline: no coalescing either; every miss is a call.
		rets, err := c.fetch(key, owner)
		if err != nil {
			return nil, false, err
		}
		return c.installReply(key, h, rets, false)
	}
	// Single-flight: the first misser becomes the leader, everyone else
	// parks on its flight.
	c.fmu.Lock()
	if f, inflight := c.flights[key]; inflight {
		c.fmu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
		case <-time.After(c.svc.cfg.CallTimeout):
			return nil, false, ErrTimeout
		}
		return f.val, f.ok, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()

	// The result goes into the cache (version-gated) so followers arriving
	// after the flight closes hit directly, unless a write voided the flight.
	// Installing under fmu orders it against voidFlight.
	rets, err := c.fetch(key, owner)
	c.fmu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if err != nil {
		f.err = err
	} else {
		f.val, f.ok, f.err = c.installReply(key, h, rets, !f.void)
	}
	c.fmu.Unlock()
	close(f.done)
	return f.val, f.ok, f.err
}

// fetch issues the remote GET to owner. Admission: fails fast with
// ErrBackpressure when the destination's outstanding bound is hit.
func (c *Client) fetch(key string, owner int) ([][]byte, error) {
	g := &c.outstanding[owner]
	if g.Add(1) > int64(c.svc.cfg.MaxOutstanding) {
		g.Add(-1)
		c.shed.Add(1)
		return nil, ErrBackpressure
	}
	c.shardCalls.Add(1)
	fut := c.loc.CallID(owner, c.svc.getID, [][]byte{[]byte(key)})
	rets, err := fut.GetTimeout(c.svc.cfg.CallTimeout)
	g.Add(-1)
	return rets, err
}

// voidFlight keeps a GET of key that is out at the shard from caching its
// reply. A write calls it once the shard has applied the write and before
// the write updates the cache: the GET may have read the shard before the
// write, and if the write's own entry were evicted before that reply
// arrived, installing the reply would serve the overwritten value to the
// writer. The flight leaves the table, so later Gets fetch anew.
func (c *Client) voidFlight(key string) {
	c.fmu.Lock()
	if f := c.flights[key]; f != nil {
		f.void = true
		delete(c.flights, key)
	}
	c.fmu.Unlock()
}

// installReply interprets a shard's GET reply, maps a statusShed reply to
// ErrShed and, when install is set, installs a found value into the cache;
// a reply parseHeader cannot name installs nothing.
func (c *Client) installReply(key string, h uint64, rets [][]byte, install bool) ([]byte, bool, error) {
	status, ver, err := parseHeader(rets, true)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case statusShed:
		c.shed.Add(1)
		return nil, false, ErrShed
	case statusNotFound:
		return nil, false, nil
	}
	val := rets[1]
	if install {
		c.cache.install(key, h, val, ver, false)
	}
	return val, true, nil
}

// Put binds key to a copy of val on the owning shard and write-through
// updates the local cache with the shard's new version (so a subsequent Get
// through this client never sees the overwritten value). The caller keeps
// ownership of val.
func (c *Client) Put(key string, val []byte) error {
	h := hashKey(key)
	owner := c.svc.ring.Owner(h)
	if owner == c.loc.ID() {
		c.svc.stores[owner].put(key, h, val)
		c.puts.Add(1)
		return nil
	}
	g := &c.outstanding[owner]
	if g.Add(1) > int64(c.svc.cfg.MaxOutstanding) {
		g.Add(-1)
		c.shed.Add(1)
		return ErrBackpressure
	}
	fut := c.loc.CallID(owner, c.svc.putID, [][]byte{[]byte(key), val})
	rets, err := fut.GetTimeout(c.svc.cfg.CallTimeout)
	g.Add(-1)
	if err != nil {
		return err
	}
	status, ver, err := parseHeader(rets, false)
	if err != nil {
		return err
	}
	if status == statusShed {
		c.shed.Add(1)
		return ErrShed
	}
	c.puts.Add(1)
	c.voidFlight(key)
	// Write-through: install a private copy (the caller may reuse val).
	cp := make([]byte, len(val))
	copy(cp, val)
	c.cache.install(key, h, cp, ver, false)
	return nil
}

// Del removes key from its shard and tombstones the cache at the shard's
// floor version, so an in-flight fill carrying the deleted value cannot
// resurrect it.
func (c *Client) Del(key string) error {
	h := hashKey(key)
	owner := c.svc.ring.Owner(h)
	if owner == c.loc.ID() {
		c.svc.stores[owner].del(key, h)
		return nil
	}
	g := &c.outstanding[owner]
	if g.Add(1) > int64(c.svc.cfg.MaxOutstanding) {
		g.Add(-1)
		c.shed.Add(1)
		return ErrBackpressure
	}
	fut := c.loc.CallID(owner, c.svc.delID, [][]byte{[]byte(key)})
	rets, err := fut.GetTimeout(c.svc.cfg.CallTimeout)
	g.Add(-1)
	if err != nil {
		return err
	}
	status, ver, err := parseHeader(rets, false)
	if err != nil {
		return err
	}
	switch status {
	case statusShed:
		c.shed.Add(1)
		return ErrShed
	case statusOK:
		c.voidFlight(key)
		c.cache.invalidate(key, h, ver)
	case statusNotFound:
		// Nothing to invalidate past what the cache already holds.
	}
	return nil
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		CacheHits:  c.cacheHits.Load(),
		LocalHits:  c.localHits.Load(),
		ShardCalls: c.shardCalls.Load(),
		Coalesced:  c.coalesced.Load(),
		Shed:       c.shed.Load(),
		Puts:       c.puts.Load(),
	}
}

// Cache exposes the client's hot-key cache (tests, stats). Nil when
// caching is disabled.
func (c *Client) Cache() *Cache { return c.cache }

// parseHeader decodes the status+version reply header and rejects every
// reply shape the shard actions cannot produce: an unknown status, or a
// value buffer anywhere but behind the statusOK header of a GET reply.
func parseHeader(rets [][]byte, get bool) (byte, uint64, error) {
	if len(rets) < 1 || len(rets[0]) != 9 {
		return 0, 0, fmt.Errorf("serve: malformed reply header")
	}
	status := rets[0][0]
	if status > statusShed {
		return 0, 0, fmt.Errorf("serve: unknown reply status %d", status)
	}
	want := 1
	if get && status == statusOK {
		want = 2 // header + value
	}
	if len(rets) != want {
		return 0, 0, fmt.Errorf("serve: malformed reply: status %d with %d buffers, want %d", status, len(rets), want)
	}
	return status, binary.LittleEndian.Uint64(rets[0][1:]), nil
}
