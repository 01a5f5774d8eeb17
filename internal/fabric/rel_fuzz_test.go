package fabric

import "testing"

// FuzzARQAdmit feeds relState.admit arrivals from one peer whose sequence
// numbers, piggybacked cumulative acks and seq/ack-only flags the fuzzer
// chooses, duplicates and reordering included, in both ARQ modes (lossless
// and buffered). Each arrival is two bytes: the first picks the sequence
// number in [1, 64]; the second's low bit makes the packet ack-only and its
// remaining bits pick the cumulative ack in [0, sent], sent being how many
// packets the receiving device sent to the peer beforehand (a peer cannot
// acknowledge more than it was sent). Invariants: no panic; every sequence
// number that arrives is admitted exactly once, on its first arrival; an
// ack-only packet is never admitted; the receive counter is always the
// contiguous prefix of the arrivals and the acknowledged counter the
// largest ack seen, so neither ever decreases; the buffered sender keeps
// exactly the unacknowledged packets.
func FuzzARQAdmit(f *testing.F) {
	f.Add(false, []byte{0, 0, 1, 2, 2, 4})
	f.Add(true, []byte{0, 0, 1, 2, 2, 4})
	f.Add(false, []byte{3, 0, 1, 1, 1, 0, 0, 32, 2, 6, 3, 0})
	f.Add(true, []byte{3, 0, 1, 1, 1, 0, 0, 32, 2, 6, 3, 0, 9, 33, 0, 17})
	f.Add(true, []byte{63, 31, 0, 30, 63, 0, 1, 0})
	f.Fuzz(func(t *testing.T, buffered bool, arrivals []byte) {
		const (
			sent   = 16
			window = 64
		)
		cfg := Config{Nodes: 2, Reliability: true}
		if buffered {
			// Any active fault selects the buffered ARQ. admit is fed
			// directly, so only the inject below could roll the dice.
			cfg.Faults = FaultConfig{SpikeProb: 1e-9, Seed: 1}
		}
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := net.Device(1)
		for i := 0; i < sent; i++ {
			if err := dev.Inject(Packet{Dst: 0, Data: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		rs := dev.rel
		if rs.buffered != buffered {
			t.Fatalf("buffered = %v, want %v", rs.buffered, buffered)
		}
		tl, rxl := rs.tx[0], rs.rx[0]
		acked := func() uint64 {
			if buffered {
				return tl.maxAcked
			}
			return tl.ackF.Load()
		}

		var arrived [window + 2]bool
		var admitted [window + 1]int
		var prefix, maxAck uint64
		for i := 0; i+1 < len(arrivals); i += 2 {
			seq := 1 + uint64(arrivals[i]%window)
			ackOnly := arrivals[i+1]&1 != 0
			ack := uint64(arrivals[i+1]>>1) % (sent + 1)
			p := &Packet{Src: 0, Dst: 1, Op: 1, relFlags: flagRel | flagSeq, relSeq: seq, relAck: ack}
			if ackOnly {
				p.Op, p.relFlags, p.relSeq = opAck, flagRel, 0
			}
			got := rs.admit(p)
			switch {
			case ackOnly && got:
				t.Fatalf("arrival %d: ack-only packet admitted", i/2)
			case !ackOnly && got == arrived[seq]:
				t.Fatalf("arrival %d: seq %d admitted=%v after earlier arrival=%v", i/2, seq, got, arrived[seq])
			}
			if !ackOnly {
				arrived[seq] = true
				if got {
					admitted[seq]++
				}
				for arrived[prefix+1] {
					prefix++
				}
			}
			maxAck = max(maxAck, ack)
			if cum := rxl.cum.Load(); cum != prefix {
				t.Fatalf("arrival %d: receive counter %d, contiguous prefix is %d", i/2, cum, prefix)
			}
			if a := acked(); a != maxAck {
				t.Fatalf("arrival %d: acknowledged counter %d, largest ack seen %d", i/2, a, maxAck)
			}
			if buffered && uint64(len(tl.unacked)) != sent-maxAck {
				t.Fatalf("arrival %d: %d packets held unacked, want %d", i/2, len(tl.unacked), sent-maxAck)
			}
			if uint64(len(rxl.ooo)) > window {
				t.Fatalf("arrival %d: %d out-of-order entries for a %d-seq window", i/2, len(rxl.ooo), window)
			}
		}
		for seq := 1; seq <= window; seq++ {
			if arrived[seq] && admitted[seq] != 1 {
				t.Fatalf("seq %d admitted %d times, want exactly once", seq, admitted[seq])
			}
		}
	})
}
