package parcelport

import (
	"bytes"
	"strings"
	"testing"

	"hpxgo/internal/serialization"
)

func TestParseConfigRoundTrip(t *testing.T) {
	names := []string{
		"mpi", "mpi_i", "mpi_orig", "mpi_orig_i",
		"lci_psr_cq_pin", "lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
		"lci_psr_sy_pin_i", "lci_psr_sy_mt_i",
		"lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
		"lci_sr_sy_pin_i", "lci_sr_sy_mt_i",
	}
	for _, n := range names {
		c, err := ParseConfig(n)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", n, err)
		}
		if got := c.String(); got != n {
			t.Fatalf("round trip %q -> %q", n, got)
		}
		// Aggregation is set, not parsed, and renders as a suffix.
		c.Aggregate = true
		if got := c.String(); got != n+"_agg" {
			t.Fatalf("%q with aggregation renders as %q", n, got)
		}
	}
}

func TestParseConfigAliases(t *testing.T) {
	c, err := ParseConfig("lci")
	if err != nil {
		t.Fatal(err)
	}
	if c != DefaultLCI() {
		t.Fatalf("lci alias = %+v", c)
	}
	if c.String() != "lci_psr_cq_pin_i" {
		t.Fatalf("baseline renders as %q", c.String())
	}
	// "rp" is the paper's name for the pinned progress thread.
	rp, err := ParseConfig("lci_psr_cq_rp_i")
	if err != nil {
		t.Fatal(err)
	}
	if rp != c {
		t.Fatal("rp and pin should parse identically")
	}
	// Case/space insensitivity.
	if _, err := ParseConfig("  MPI_I "); err != nil {
		t.Fatalf("case-insensitive parse failed: %v", err)
	}
	// Send-immediate shorthand on the baseline alias.
	if i, err := ParseConfig("lci_i"); err != nil || i != c {
		t.Fatalf("lci_i alias = %+v (%v)", i, err)
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"", "smoke", "mpi_x", "lci_psr", "lci_xx_cq_pin", "lci_psr_xx_pin",
		"lci_psr_cq_xx", "lci_psr_cq_pin_z", "lci_aggg", "lci_agg_x", "mpi_agg_x", "lci_i_x",
		// Aggregation is core.Config.Aggregation, not a name suffix.
		"lci_agg", "lci_i_agg", "mpi_agg", "mpi_i_agg", "mpi_orig_i_agg",
		"lci_psr_cq_pin_agg", "lci_psr_cq_pin_i_agg", "lci_sr_sy_mt_i_agg",
		// Only the names String renders: each option once, in order.
		"mpi_i_i", "mpi_orig_orig", "mpi_i_orig", "lci_psr_cq_pin_i_i",
		// The TCP transport is gone.
		"tcp", "tcp_i", "tcp_x",
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Fatalf("ParseConfig(%q) should fail", bad)
		}
	}
}

func TestTable1Complete(t *testing.T) {
	cfgs := Table1()
	if len(cfgs) != 11 {
		t.Fatalf("Table1 lists %d configs, want 11", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate config %q", s)
		}
		seen[s] = true
	}
	for _, want := range []string{"mpi", "mpi_i", "lci_psr_cq_pin", "lci_sr_sy_mt_i"} {
		if !seen[want] {
			t.Fatalf("Table1 missing %q", want)
		}
	}
}

func TestTagAllocatorBasics(t *testing.T) {
	a := NewTagAllocator(1 << 20)
	t1, t2 := a.Next(), a.Next()
	if t1 == 0 || t2 == 0 {
		t.Fatal("tag 0 is reserved for header messages")
	}
	if t1 == t2 {
		t.Fatal("consecutive tags must differ")
	}
}

func TestTagAllocatorBlock(t *testing.T) {
	a := NewTagAllocator(1 << 20)
	first := a.Block(5)
	for k := 0; k < 5; k++ {
		tag := a.Nth(first, k)
		if tag == 0 {
			t.Fatal("block tag 0")
		}
		if k > 0 && tag == first {
			t.Fatalf("block tag %d collided with first", k)
		}
	}
	next := a.Next()
	for k := 0; k < 5; k++ {
		if a.Nth(first, k) == next {
			t.Fatal("block overlaps subsequent allocation")
		}
	}
}

func TestTagAllocatorWraparound(t *testing.T) {
	a := NewTagAllocator(8) // tags in [1,8)
	seen := map[uint32]int{}
	for i := 0; i < 21; i++ {
		tag := a.Next()
		if tag == 0 || tag >= 8 {
			t.Fatalf("tag %d out of range", tag)
		}
		seen[tag]++
		a.Release(tag, 1) // connection completes before the space wraps
	}
	// 21 allocations over 7 tags with prompt release: the cursor sweeps the
	// ring three times and each value is reused exactly 3 times.
	for tag, n := range seen {
		if n != 3 {
			t.Fatalf("tag %d allocated %d times", tag, n)
		}
	}
	if a.InFlight() != 0 {
		t.Fatalf("%d tags leaked", a.InFlight())
	}
}

// TestTagAllocatorWraparoundCollision is the regression test for the
// wraparound bug: the old atomic-counter allocator reissued a tag that was
// still held by a live connection as soon as the counter wrapped. The fixed
// allocator must skip in-flight tags and hand out the one released slot.
func TestTagAllocatorWraparoundCollision(t *testing.T) {
	a := NewTagAllocator(8) // tags in [1,8)
	live := make(map[uint32]bool)
	var tags []uint32
	for i := 0; i < 7; i++ {
		tag := a.Next()
		if live[tag] {
			t.Fatalf("tag %d reissued while in flight", tag)
		}
		live[tag] = true
		tags = append(tags, tag)
	}
	// One connection in the middle completes; the other six stay live.
	released := tags[3]
	a.Release(released, 1)
	delete(live, released)

	// The old allocator returns tags[0] here (counter wrapped to the start),
	// colliding with a live connection. The fixed one must return the single
	// free tag.
	got := a.Next()
	if live[got] {
		t.Fatalf("wraparound collision: tag %d reissued while in flight (old-allocator behaviour)", got)
	}
	if got != released {
		t.Fatalf("Next() = %d, want the released tag %d", got, released)
	}
}

func TestTagAllocatorExhaustionPanics(t *testing.T) {
	a := NewTagAllocator(4) // tags in [1,4)
	for i := 0; i < 3; i++ {
		a.Next()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("allocating from an exhausted tag space must panic, not hand out a live tag")
		}
	}()
	a.Next()
}

func TestTagAllocatorBlockSkipsFragmentation(t *testing.T) {
	a := NewTagAllocator(8)
	t1 := a.Next() // slot 0
	t2 := a.Next() // slot 1
	a.Release(t1, 1)
	// Slot 0 is free but slot 1 is live: a 3-block must skip past it.
	first := a.Block(3)
	for k := 0; k < 3; k++ {
		if tag := a.Nth(first, k); tag == t2 {
			t.Fatalf("block member %d collides with live tag %d", k, t2)
		}
	}
	a.Release(first, 3)
	a.Release(t2, 1)
	if a.InFlight() != 0 {
		t.Fatalf("%d tags leaked", a.InFlight())
	}
}

// TestTagAllocatorBlockWraparound: a block starting near bound-1 must wrap
// cleanly — members stay in [1, bound), remain distinct, span the boundary,
// and Release of the wrapped block frees every slot it reserved.
func TestTagAllocatorBlockWraparound(t *testing.T) {
	a := NewTagAllocator(9) // 8 slots, tags in [1,9)
	// Advance the cursor to slot 6 so a 4-block must wrap past the bound.
	for i := 0; i < 6; i++ {
		a.Release(a.Next(), 1)
	}
	first := a.Block(4) // slots 6,7,0,1
	if first != 7 {
		t.Fatalf("block first tag = %d, want 7 (slot 6)", first)
	}
	seen := map[uint32]bool{}
	for k := 0; k < 4; k++ {
		tag := a.Nth(first, k)
		if tag == 0 || tag >= 9 {
			t.Fatalf("wrapped block member %d = %d out of [1,9)", k, tag)
		}
		if seen[tag] {
			t.Fatalf("wrapped block member %d = %d duplicated", k, tag)
		}
		seen[tag] = true
	}
	if !seen[8] || !seen[1] {
		t.Fatalf("block %v does not span the wraparound boundary", seen)
	}
	if a.InFlight() != 4 {
		t.Fatalf("InFlight = %d, want 4", a.InFlight())
	}
	// A follow-up allocation must not collide with the wrapped block.
	next := a.Next()
	if seen[next] {
		t.Fatalf("Next() = %d collides with the wrapped block", next)
	}
	// Release must clear the same wrapped slots Block reserved.
	a.Release(first, 4)
	if a.InFlight() != 1 {
		t.Fatalf("InFlight after wrapped release = %d, want 1", a.InFlight())
	}
	a.Release(next, 1)
	if a.InFlight() != 0 {
		t.Fatalf("%d tags leaked", a.InFlight())
	}
}

// TestTagAllocatorBlockWraparoundSkipsLiveTag: a run that would wrap onto a
// live tag on the far side of the boundary must be skipped, not split or
// collided with.
func TestTagAllocatorBlockWraparoundSkipsLiveTag(t *testing.T) {
	a := NewTagAllocator(9) // 8 slots, tags in [1,9)
	live := a.Next()        // slot 0, tag 1
	for i := 0; i < 5; i++ {
		a.Release(a.Next(), 1)
	}
	// Cursor sits at slot 6: the natural run 6,7,0 crosses the boundary into
	// the live tag and must be rejected.
	first := a.Block(3)
	for k := 0; k < 3; k++ {
		if a.Nth(first, k) == live {
			t.Fatalf("wrapped block member %d collides with live tag %d", k, live)
		}
	}
	if a.InFlight() != 4 {
		t.Fatalf("InFlight = %d, want 4", a.InFlight())
	}
	a.Release(first, 3)
	a.Release(live, 1)
	if a.InFlight() != 0 {
		t.Fatalf("%d tags leaked", a.InFlight())
	}
}

func TestHeaderEncodeDecodeAllPiggybacked(t *testing.T) {
	m := &serialization.Message{
		NonZeroCopy:  []byte("nonzerocopy-chunk"),
		Transmission: []byte("trans"),
		ZeroCopy:     [][]byte{make([]byte, 9000)},
	}
	buf := make([]byte, 8192)
	n, _, _, err := EncodeHeader(buf, 42, m, 8192, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.BaseTag != 42 || h.NumZC != 1 {
		t.Fatalf("header fields: %+v", h)
	}
	if !h.PiggyNZC() || !h.PiggyTrans() {
		t.Fatal("both chunks should be piggybacked")
	}
	if !bytes.Equal(h.NZC, m.NonZeroCopy) || !bytes.Equal(h.Trans, m.Transmission) {
		t.Fatal("piggybacked chunks corrupted")
	}
}

func TestHeaderNoPiggybackWhenTooBig(t *testing.T) {
	m := &serialization.Message{
		NonZeroCopy:  bytes.Repeat([]byte{1}, 600),
		Transmission: bytes.Repeat([]byte{2}, 600),
		ZeroCopy:     [][]byte{make([]byte, 9000)},
	}
	buf := make([]byte, 512)
	n, _, _, err := EncodeHeader(buf, 7, m, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != headerFixedSize {
		t.Fatalf("header size %d, want fixed %d", n, headerFixedSize)
	}
	h, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.PiggyNZC() || h.PiggyTrans() {
		t.Fatal("nothing should be piggybacked")
	}
	if h.NZCSize != 600 || h.TransSize != 600 || h.NumZC != 1 {
		t.Fatalf("sizes: %+v", h)
	}
}

func TestHeaderOriginalModeSkipsTransPiggyback(t *testing.T) {
	// The original MPI parcelport can only piggyback the non-zero-copy
	// chunk, even when the transmission chunk would fit.
	m := &serialization.Message{
		NonZeroCopy:  []byte("nzc"),
		Transmission: []byte("tr"),
		ZeroCopy:     [][]byte{make([]byte, 9000)},
	}
	buf := make([]byte, 512)
	n, _, _, err := EncodeHeader(buf, 1, m, 512, false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.Trans != nil {
		t.Fatal("original mode must not piggyback the transmission chunk")
	}
	if !h.PiggyNZC() {
		t.Fatal("nzc should still be piggybacked")
	}
}

func TestHeaderPiggyTransOnlyNoTrans(t *testing.T) {
	// A message without zero-copy chunks has no transmission chunk;
	// PiggyTrans must report true (nothing left to fetch).
	m := &serialization.Message{NonZeroCopy: []byte("only")}
	buf := make([]byte, 512)
	n, _, _, err := EncodeHeader(buf, 3, m, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !h.PiggyTrans() || h.TransSize != 0 {
		t.Fatalf("absent transmission chunk handled wrong: %+v", h)
	}
}

func TestHeaderEncodeValidation(t *testing.T) {
	m := &serialization.Message{}
	if _, _, _, err := EncodeHeader(make([]byte, 10), 1, m, 10, true); err == nil {
		t.Fatal("maxSize below fixed size should fail")
	}
	if _, _, _, err := EncodeHeader(make([]byte, 10), 1, m, 512, true); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestHeaderDecodeErrors(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header should fail")
	}
	// Construct a header claiming a piggybacked chunk longer than the data.
	m := &serialization.Message{NonZeroCopy: []byte("abcdef")}
	buf := make([]byte, 512)
	n, _, _, err := EncodeHeader(buf, 1, m, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHeader(buf[:n-3]); err == nil {
		t.Fatal("truncated piggyback should fail")
	}
}

func TestConfigStringsAreTable1Abbreviations(t *testing.T) {
	// Every rendered name must use only Table 1 vocabulary.
	for _, c := range Table1() {
		for _, part := range strings.Split(c.String(), "_") {
			switch part {
			case "mpi", "lci", "sr", "psr", "sy", "cq", "pin", "mt", "i":
			default:
				t.Fatalf("unexpected abbreviation part %q in %q", part, c.String())
			}
		}
	}
}
