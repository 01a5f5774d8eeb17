package core

import (
	"fmt"
	"strings"

	"hpxgo/internal/parcelport/lcipp"
	"hpxgo/internal/parcelport/mpipp"
	"hpxgo/internal/wire"
)

// StatsText renders the runtime's performance counters — the analogue of
// HPX's performance-counter interface — as an aligned text report: one
// block per locality covering the parcel layer, the parcelport and the
// transport beneath it.
func (rt *Runtime) StatsText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime counters (%s, %d localities)\n", rt.ParcelportName(), rt.Localities())
	// The wire pool is shared by every runtime in the process. A class whose
	// count keeps growing under steady load is allocating instead of
	// recycling: "did the rendezvous classes (1M, 4M) hit" reads off here.
	b.WriteString("buffer pool misses by class (process-wide):")
	for _, m := range wire.PoolMisses() {
		unit, v := "B", m.Class
		if v >= 1<<20 {
			unit, v = "M", v>>20
		} else if v >= 1<<10 {
			unit, v = "K", v>>10
		}
		fmt.Fprintf(&b, " %d%s=%d", v, unit, m.Misses)
	}
	b.WriteByte('\n')
	service := rt.serviceText() // the EWMAs are runtime-wide; the crossings are counted per locality
	for i, loc := range rt.locs {
		fmt.Fprintf(&b, "locality %d:\n", i)
		ls := loc.layer.Stats()
		fmt.Fprintf(&b, "  parcels sent %d in %d messages (%d aggregated, %d cache-exhausted), actions run %d, decode errors %d, unknown-action drops %d, reaped calls %d\n",
			ls.ParcelsSent, ls.MessagesSent, ls.AggregatedSends, ls.CacheExhausted, loc.ParcelsExecuted(), loc.DecodeErrors(), loc.UnknownActionDrops(), loc.reapedCalls.Load())
		fmt.Fprintf(&b, "  inline lane: %d run-to-completion, %d demoted to spawn, %d spawned tasks total\n",
			loc.InlineExecuted(), loc.InlineSpilled(), loc.sched.Executed())
		fmt.Fprintf(&b, "  inline escape: %d demotions, %d re-admissions; service EWMA ns:%s\n",
			loc.InlineDemotions(), loc.InlineReadmissions(), service)
		fmt.Fprintf(&b, "  pollers: %d worker poll loops, %d watchdog takeovers\n",
			loc.sched.PollLoops(), loc.sched.Takeovers())
		pport := loc.pp
		if agg := loc.agg; agg != nil {
			as := agg.Stats()
			fmt.Fprintf(&b, "  aggregation: %d msgs in %d bundles (+%d direct), flushes %d quiet / %d size / %d age / %d cap / %d order / %d stop, %d unbundled\n",
				as.BundledMessages, as.Bundles, as.DirectSends,
				as.QuietFlushes, as.SizeFlushes, as.AgeFlushes, as.CapFlushes, as.OrderFlushes, as.StopFlushes, as.Unbundled)
			pport = agg.Inner()
		}
		switch pp := pport.(type) {
		case *mpipp.Parcelport:
			ps := pp.Stats()
			fmt.Fprintf(&b, "  mpi parcelport: %d msgs sent / %d recvd, piggybacked %d nzc / %d trans, pending conns %d\n",
				ps.MessagesSent, ps.MessagesRecvd, ps.HeadersPiggyNZC, ps.HeadersPiggyTr, pp.PendingConnections())
			cs := rt.world.Comm(i).Stats()
			fmt.Fprintf(&b, "  mpi library: %d Test calls, %d lock acquisitions, %v lock wait, %d posted / %d unexpected\n",
				cs.TestCalls, cs.LockAcquires, cs.LockWait.Round(1000), cs.PostedRecvs, cs.UnexpectedMsgs)
		case *lcipp.Parcelport:
			ps := pp.Stats()
			fmt.Fprintf(&b, "  lci parcelport: %d msgs sent / %d recvd, %d retries, %d sync polls, %d devices\n",
				ps.MessagesSent, ps.MessagesRecvd, ps.SendRetries, ps.SyncPolls, pp.Devices())
			for d, dev := range loc.lciDevs {
				ds := dev.Stats()
				fmt.Fprintf(&b, "  lci device %d: %d medium / %d puts / %d long sent, %d progress calls, %d unexpected\n",
					d, ds.MediumSent, ds.PutsSent, ds.LongSent, ds.ProgressCalls, ds.Unexpected)
			}
		}
		ncfg := rt.net.Config()
		for d := 0; d < ncfg.DevicesPerNode; d++ {
			fs := rt.net.DeviceN(i, d).Stats()
			fmt.Fprintf(&b, "  fabric device %d: injected %d pkts / %d B, delivered %d pkts / %d B, backpressured %d\n",
				d, fs.InjectedPackets, fs.InjectedBytes, fs.DeliveredPackets, fs.DeliveredBytes, fs.Backpressured)
			if ncfg.Reliability {
				fmt.Fprintf(&b, "  fabric device %d reliability: %d retransmits, %d acks sent, dropped %d corrupt / %d dup / %d to-down-links, %d links downed\n",
					d, fs.Retransmits, fs.AcksSent, fs.CorruptDropped, fs.DupDropped, fs.DownDropped, fs.LinksDowned)
				if ncfg.Faults.Active() {
					fmt.Fprintf(&b, "  fabric device %d faults: %d dropped, %d duplicated, %d corrupted, %d latency spikes\n",
						d, fs.FaultDropped, fs.FaultDuplicated, fs.FaultCorrupted, fs.LatencySpikes)
				}
			}
		}
		// Which peer is unhealthy, slow to ack, or falling behind on its
		// polling, over all of this node's devices like PeerHealth: worst
		// rtt, summed depth. Health and rtt_ns stay healthy/0 without
		// reliability.
		peers := make([]string, 0, rt.Localities()-1)
		for j := 0; j < rt.Localities(); j++ {
			if j == i {
				continue
			}
			var rtt int64
			depth := 0
			for d := 0; d < ncfg.DevicesPerNode; d++ {
				dev := rt.net.DeviceN(i, d)
				rtt = max(rtt, dev.LinkRTTNs(j))
				depth += dev.EgressQueueDepth(j)
			}
			peers = append(peers, fmt.Sprintf("%d:%s/%d/%d", j, rt.net.PeerHealth(i, j), rtt, depth))
		}
		fmt.Fprintf(&b, "  peers (health/rtt_ns/egress_depth): %s\n", strings.Join(peers, " "))
	}
	return b.String()
}

// serviceText lists every inline-hinted action that has been sampled with
// its current service EWMA, marking the ones the escape holds demoted.
func (rt *Runtime) serviceText() string {
	var b strings.Builder
	rt.regMu.RLock()
	defer rt.regMu.RUnlock()
	for id, hinted := range rt.inline {
		if !hinted || id >= len(rt.actionSvc) {
			continue
		}
		switch est := rt.actionSvc[id].Load(); {
		case est >= inlineHeavyNs:
			fmt.Fprintf(&b, " %s=%d(demoted)", rt.names[id], est)
		case est > 0:
			fmt.Fprintf(&b, " %s=%d", rt.names[id], est)
		}
	}
	if b.Len() == 0 {
		return " none sampled"
	}
	return b.String()
}
