// Package serve is the serving-shaped workload of the stack: a
// consistent-hash-sharded key-value service registered as actions on the
// core runtime, with the perf machinery that keeps it fast under skewed
// ("heavy traffic") load — a per-locality lock-free-read hot-key cache
// (cache.go), single-flight miss coalescing (client.go in serve.go), and
// token-bucket admission control with queue-depth backpressure (admit.go).
// An open-loop load generator (loadgen.go) drives it with Zipf or uniform
// key mixes and reports p50/p99/p999 via internal/stats.
//
// Unlike the HPC workloads (octotiger, dfft, graphbfs), requests here are
// irregular, latency-sensitive and tiny — exactly the traffic shape the
// HPX+LCI communication-needs study (arXiv 2503.12774) identifies as where
// an AMT network stack earns its keep. Every request rides the full stack
// built in PRs 1-7: aggregation bundles the small GET parcels, the ARQ
// keeps them exactly-once under faults, and the zero-alloc datapath keeps
// the per-request cost flat.
package serve

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters. Key hashing is a
// manual FNV-1a loop so the hot GET path hashes a string key with zero
// allocations (hash/fnv would force a []byte conversion).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashKey hashes a key for both ring placement and cache indexing.
func hashKey(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// Ring is a consistent-hash ring over the shard-owning localities. Each
// owner contributes vnodes points (hashes of owner id × replica index); a
// key belongs to the owner of the first point clockwise from the key's
// hash. The ring is built once and immutable, so Owner is lock-free; the
// consistent-hash property (removing one owner remaps only ~1/N of the
// keyspace, verified by TestRingRemapFraction) is what makes the shard map
// stable under the elastic-membership work ROADMAP item 1 plans.
type Ring struct {
	points []uint64 // sorted vnode hashes
	owners []int    // owners[i] owns points[i]
}

// NewRing builds a ring with vnodes points per owner. Owners must be
// non-empty; duplicate owner ids are rejected.
func NewRing(owners []int, vnodes int) (*Ring, error) {
	if len(owners) == 0 {
		return nil, fmt.Errorf("serve: ring needs at least one owner")
	}
	if vnodes <= 0 {
		vnodes = ringVNodes
	}
	seen := make(map[int]bool, len(owners))
	r := &Ring{
		points: make([]uint64, 0, len(owners)*vnodes),
		owners: make([]int, 0, len(owners)*vnodes),
	}
	type pt struct {
		h     uint64
		owner int
	}
	pts := make([]pt, 0, len(owners)*vnodes)
	var buf [16]byte
	for _, o := range owners {
		if seen[o] {
			return nil, fmt.Errorf("serve: duplicate ring owner %d", o)
		}
		seen[o] = true
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(o)+0x9e3779b97f4a7c15)
			binary.LittleEndian.PutUint64(buf[8:16], uint64(v)*0xbf58476d1ce4e5b9+1)
			h := uint64(fnvOffset)
			for _, b := range buf {
				h ^= uint64(b)
				h *= fnvPrime
			}
			pts = append(pts, pt{h, o})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	for _, p := range pts {
		r.points = append(r.points, p.h)
		r.owners = append(r.owners, p.owner)
	}
	return r, nil
}

// Owner returns the locality owning hash h: binary search for the first
// point >= h, wrapping to the first point past the top of the ring.
func (r *Ring) Owner(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.owners[i]
}

// KeyOwner returns the locality owning key.
func (r *Ring) KeyOwner(key string) int { return r.Owner(hashKey(key)) }

// Owners returns the distinct owner set (sorted by first appearance order
// is not guaranteed; callers treat it as a set).
func (r *Ring) Owners() []int {
	seen := make(map[int]bool)
	var out []int
	for _, o := range r.owners {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}
