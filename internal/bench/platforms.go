// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§4 microbenchmarks, §5 Octo-Tiger).
//
// Absolute scales are reduced to fit a single-host simulation (the paper
// runs 500K-message sweeps on 128-core InfiniBand nodes); the scale factors
// are explicit in Scale and recorded in EXPERIMENTS.md. All configurations
// of one figure run under identical scaled parameters, which is what the
// paper's relative claims require.
package bench

import "hpxgo/internal/fabric"

// Platform is a simulated cluster profile, standing in for the systems of
// Table 2 (SDSC Expanse) and Table 3 (Rostam).
type Platform struct {
	Name string

	// Descriptive rows, reproduced from the paper's tables.
	CPU          string
	Memory       string
	Storage      string
	NIC          string
	Interconnect string
	MaxNodes     int
	OS           string
	Compiler     string
	Software     string

	// Simulation knobs derived from the hardware above.
	WorkersPerLocality int     // scaled-down core count per node
	LatencyNs          int64   // fabric one-way latency
	GbitsPerSec        float64 // fabric per-rail bandwidth
	OctoLevel          int     // Octo-Tiger max octree level used in §5
}

// Fabric renders the platform's interconnect as a fabric configuration.
func (p Platform) Fabric(nodes int) fabric.Config {
	return fabric.Config{
		Nodes:               nodes,
		LatencyNs:           p.LatencyNs,
		GbitsPerSec:         p.GbitsPerSec,
		Rails:               2, // LCI's transport may reorder; keep both honest
		PacketOverheadBytes: 64,
	}
}

// Expanse is the SDSC Expanse profile (Table 2). 128 cores per node scale to
// 4 workers; HDR InfiniBand (2x50Gbps) keeps its bandwidth, with ~1us
// one-way latency.
var Expanse = Platform{
	Name:         "expanse",
	CPU:          "AMD EPYC 7742 64-Core Processor (2 sockets, 128 cores per node)",
	Memory:       "256 GB, DDR4",
	Storage:      "1TB Local Intel NVMe SSD",
	NIC:          "Mellanox ConnectX-6",
	Interconnect: "HDR InfiniBand (2x50Gbps)",
	MaxNodes:     32,
	OS:           "Rocky Linux 8.7",
	Compiler:     "GCC 10.2.0",
	Software:     "OpenMPI 4.1.5, UCX 1.14.0",

	WorkersPerLocality: 4,
	LatencyNs:          1000,
	GbitsPerSec:        100,
	OctoLevel:          6,
}

// Rostam is the LSU Rostam profile (Table 3). 40 Skylake cores scale to 2
// workers; FDR InfiniBand (4x14Gbps) has about half HDR's bandwidth and
// slightly higher latency.
var Rostam = Platform{
	Name:         "rostam",
	CPU:          "Intel(R) Xeon(R) Gold 6148 CPU (Skylake) (2 sockets, 40 cores per node)",
	Memory:       "96 GB, DDR4",
	Storage:      "1TB Local NVMe SSD",
	NIC:          "Mellanox ConnectX-3",
	Interconnect: "FDR InfiniBand (4x14Gbps)",
	MaxNodes:     16,
	OS:           "Red Hat Linux 8.8",
	Compiler:     "GCC 10.3.1",
	Software:     "OpenMPI 4.1.5, UCX 1.14.0",

	WorkersPerLocality: 2,
	LatencyNs:          1700,
	GbitsPerSec:        56,
	OctoLevel:          5,
}

// Scale sets the experiment sizes. The paper's values appear in comments.
type Scale struct {
	Reps int // repetitions per data point (paper: >= 5)

	// Message-rate sweep (Figs 1-6).
	Total8B  int       // total 8B messages (paper: 500_000)
	Batch8B  int       // messages per task (paper: 100)
	Total16K int       // total 16KiB messages (paper: 100_000)
	Batch16K int       // messages per task (paper: 10)
	Rates8B  []float64 // attempted injection rates, msgs/s (0 = unlimited)
	Rates16K []float64

	// Latency (Figs 7-9).
	LatencySteps int   // chain length (one-way legs)
	Sizes7       []int // message sizes of Fig 7
	Windows      []int // window sizes of Figs 8-9

	// Octo-Tiger (Figs 10-11).
	OctoSteps     int   // stop step (paper: 5)
	OctoNodes     []int // node counts per platform sweep
	OctoNodesR    []int
	OctoSubgrid   int
	OctoFields    int
	OctoLevelExp  int // scaled-down levels (paper: 6 and 5)
	OctoLevelRost int

	// Collectives scaling (flat vs tree latency sweep).
	CollNodes []int // simulated locality counts
	CollIters int   // collectives timed per repetition

	// Serving tier (KV over the runtime: cache + coalescing + admission).
	ServeLocalities int     // localities (locality 0 is the client-only driver)
	ServeClients    int     // simulated clients on the driver
	ServeTotal      int     // total requests per row
	ServeKeys       int     // keyspace size
	ServeCache      int     // client cache entries (must be << ServeKeys)
	ServeRate       float64 // aggregate offered ops/s (overdrives capacity)
	ServeAdmitRate  float64 // shard admission rate for the admit row, ops/s

	// Datapath artifacts (fabric-bench / deliver-bench).
	FabricIters  int // timed iterations per fabric row (~35-350 ns each)
	DeliverIters int // timed iterations per deliver row (~1-11 us each)
}

// FullScale is used by cmd/experiments: large enough for stable rates on a
// single-CPU host, a ~250x reduction from the paper's counts.
func FullScale() Scale {
	return Scale{
		Reps:          3,
		Total8B:       20000,
		Batch8B:       100,
		Total16K:      2000,
		Batch16K:      10,
		Rates8B:       []float64{100e3, 200e3, 400e3, 800e3, 1600e3, 0},          // paper: 100K/s to 1600K/s and unlimited
		Rates16K:      []float64{10e3, 20e3, 40e3, 80e3, 160e3, 320e3, 640e3, 0}, // paper: 10K/s to 640K/s and unlimited
		LatencySteps:  300,
		Sizes7:        []int{8, 64, 512, 1024, 4096, 8192, 16384, 65536}, // 8B to 64KiB
		Windows:       []int{1, 2, 4, 8, 16, 32, 64},                     // paper: 1 to 64
		OctoSteps:     3,
		OctoNodes:     []int{2, 4, 8, 16, 32},
		OctoNodesR:    []int{2, 4, 8, 16},
		OctoSubgrid:   6,
		OctoFields:    4,
		OctoLevelExp:  3,
		OctoLevelRost: 2,
		CollNodes:     []int{8, 16, 32, 64, 128, 256},
		CollIters:     3,

		ServeLocalities: 4,
		ServeClients:    400,
		ServeTotal:      40000,
		ServeKeys:       2048,
		ServeCache:      256,
		ServeRate:       400e3,
		ServeAdmitRate:  10e3,

		FabricIters:  200000,
		DeliverIters: 20000,
	}
}

// QuickScale keeps unit tests and testing.B benches fast.
func QuickScale() Scale {
	s := FullScale()
	s.Reps = 1
	s.Total8B = 2000
	s.Total16K = 300
	s.Rates8B = []float64{400e3, 0}
	s.Rates16K = []float64{40e3, 0}
	s.LatencySteps = 60
	s.Sizes7 = []int{8, 1024, 16384}
	s.Windows = []int{1, 8}
	s.OctoSteps = 1
	s.OctoNodes = []int{2, 4}
	s.OctoNodesR = []int{2, 4}
	s.OctoSubgrid = 4
	s.OctoLevelExp = 2
	s.OctoLevelRost = 2
	s.CollNodes = []int{4, 8, 16}
	s.CollIters = 2
	s.ServeLocalities = 3
	s.ServeClients = 200
	s.ServeTotal = 20000
	s.ServeKeys = 2048
	s.ServeCache = 256
	s.ServeRate = 400e3
	s.ServeAdmitRate = 10e3
	s.FabricIters = 50000
	s.DeliverIters = 5000
	return s
}
