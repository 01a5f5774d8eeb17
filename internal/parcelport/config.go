package parcelport

import (
	"fmt"
	"strings"
)

// Transport selects the communication library.
type Transport int

const (
	// TransportMPI uses the MPI-like library (internal/mpisim).
	TransportMPI Transport = iota
	// TransportLCI uses the LCI-like library (internal/lci).
	TransportLCI
)

// Protocol selects how the LCI parcelport transfers header messages (§3.2.2).
type Protocol int

const (
	// PutSendRecv ("psr") sends headers with the one-sided dynamic put and
	// the remaining messages with two-sided send/receive. Baseline.
	PutSendRecv Protocol = iota
	// SendRecv ("sr") uses only two-sided send/receive; the header channel
	// keeps one wildcard receive posted like the MPI parcelport.
	SendRecv
)

// Completion selects the LCI completion mechanism (§3.2.2).
type Completion int

const (
	// CompletionQueue ("cq") polls one completion queue. Baseline.
	CompletionQueue Completion = iota
	// Synchronizer ("sy") uses per-operation synchronizers kept in a pending
	// list, polled round-robin like the MPI parcelport's connection list.
	// Header puts still complete through the pre-configured CQ (an LCI
	// implementation limitation noted in the paper).
	// Needed by Figs 2/3/5/6/7–9 (bench.lciImmediateVariants, Table1).
	Synchronizer
)

// ProgressMode selects who calls the LCI progress function (§3.2.2).
type ProgressMode int

const (
	// PinnedProgress ("pin"/"rp") runs a dedicated progress thread created
	// through the resource partitioner. Baseline.
	PinnedProgress ProgressMode = iota
	// WorkerProgress ("mt") has idle worker threads call the (thread-safe)
	// progress function from background work.
	// Needed by Figs 2/3/5/6/7–9 (bench.lciImmediateVariants, Table1).
	WorkerProgress
)

// Config identifies one of the parcelport configurations of Table 1.
type Config struct {
	Transport  Transport
	Protocol   Protocol     // LCI only
	Completion Completion   // LCI only
	Progress   ProgressMode // LCI only
	// Immediate enables the send-immediate optimization ("_i"): the upper
	// layer bypasses the connection cache and parcel queue. The
	// non-immediate forms are needed by Figs 1/4 (lci_psr_cq_pin, mpi).
	Immediate bool
	// Original selects the pre-improvement MPI parcelport of §3.1: fixed
	// 512-byte header buffers that can only piggyback the non-zero-copy
	// chunk, and a lock-protected tag provider with tag-release messages.
	// Needed by ablation-mpi and its mpi-ablation claim.
	Original bool
	// Aggregate enables the sender-side aggregation layer (rendered as a
	// trailing "_agg"; set from core.Config.Aggregation, not parsed): small
	// same-destination messages coalesce into one fabric transfer. Not part
	// of Table 1; available on every transport.
	Aggregate bool
}

// DefaultLCI returns the baseline LCI parcelport configuration the paper
// ships as the HPX default (lci_psr_cq_pin_i, a.k.a. lci_psr_cq_rp_i).
func DefaultLCI() Config {
	return Config{Transport: TransportLCI, Immediate: true}
}

// String renders the Table 1 abbreviation for the configuration.
func (c Config) String() string {
	var parts []string
	switch c.Transport {
	case TransportMPI:
		parts = append(parts, "mpi")
		if c.Original {
			parts = append(parts, "orig")
		}
	default:
		parts = append(parts, "lci")
		if c.Protocol == SendRecv {
			parts = append(parts, "sr")
		} else {
			parts = append(parts, "psr")
		}
		if c.Completion == Synchronizer {
			parts = append(parts, "sy")
		} else {
			parts = append(parts, "cq")
		}
		if c.Progress == WorkerProgress {
			parts = append(parts, "mt")
		} else {
			parts = append(parts, "pin")
		}
	}
	if c.Immediate {
		parts = append(parts, "i")
	}
	if c.Aggregate {
		parts = append(parts, "agg")
	}
	return strings.Join(parts, "_")
}

// ParseConfig parses a Table 1 abbreviation. Accepted forms, each option at
// most once and in this order:
//
//	mpi[_orig][_i]
//	lci[_i]                   (aliases for the baseline lci_psr_cq_pin_i)
//	lci_{sr|psr}_{cq|sy}_{pin|rp|mt}[_i]
//
// so every name but the aliases (and "rp" for "pin") is what String renders.
// Aggregation is not part of the name: core.Config.Aggregation sets
// Aggregate, and String renders it as a trailing "_agg".
func ParseConfig(name string) (Config, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(name)), "_")
	if parts[0] == "" {
		return Config{}, fmt.Errorf("parcelport: empty configuration name")
	}
	var c Config
	rest := parts[1:]
	// take consumes the next option if it is opt.
	take := func(opt string) bool {
		if len(rest) > 0 && rest[0] == opt {
			rest = rest[1:]
			return true
		}
		return false
	}
	switch parts[0] {
	case "mpi":
		c.Transport = TransportMPI
		c.Original = take("orig")
	case "lci":
		if len(rest) == 0 || len(rest) == 1 && rest[0] == "i" {
			return DefaultLCI(), nil
		}
		if len(rest) < 3 {
			return Config{}, fmt.Errorf("parcelport: lci configuration %q needs protocol, completion and progress", name)
		}
		c.Transport = TransportLCI
		switch rest[0] {
		case "sr":
			c.Protocol = SendRecv
		case "psr":
			c.Protocol = PutSendRecv
		default:
			return Config{}, fmt.Errorf("parcelport: unknown protocol %q in %q", rest[0], name)
		}
		switch rest[1] {
		case "cq":
			c.Completion = CompletionQueue
		case "sy":
			c.Completion = Synchronizer
		default:
			return Config{}, fmt.Errorf("parcelport: unknown completion %q in %q", rest[1], name)
		}
		switch rest[2] {
		case "pin", "rp":
			c.Progress = PinnedProgress
		case "mt":
			c.Progress = WorkerProgress
		default:
			return Config{}, fmt.Errorf("parcelport: unknown progress mode %q in %q", rest[2], name)
		}
		rest = rest[3:]
	default:
		return Config{}, fmt.Errorf("parcelport: unknown transport %q in %q", parts[0], name)
	}
	c.Immediate = take("i")
	if len(rest) > 0 {
		return Config{}, fmt.Errorf("parcelport: unknown, repeated or misplaced %s option %q in %q", parts[0], rest[0], name)
	}
	return c, nil
}

// Table1 returns every configuration the paper's figures evaluate, in the
// order of Fig. 3/Fig. 6.
func Table1() []Config {
	mk := func(s string) Config {
		c, err := ParseConfig(s)
		if err != nil {
			panic(err)
		}
		return c
	}
	return []Config{
		mk("lci_psr_cq_pin"),
		mk("lci_psr_cq_pin_i"),
		mk("lci_psr_cq_mt_i"),
		mk("lci_psr_sy_pin_i"),
		mk("lci_psr_sy_mt_i"),
		mk("lci_sr_cq_pin_i"),
		mk("lci_sr_cq_mt_i"),
		mk("lci_sr_sy_pin_i"),
		mk("lci_sr_sy_mt_i"),
		mk("mpi"),
		mk("mpi_i"),
	}
}
