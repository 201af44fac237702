// Trafficanalysis: the measurement workflow the paper highlights —
// "DDoSim enables the extraction of network traffic at any layer"
// (§V-A). This example runs an attack with mixed benign traffic, then
// prints a Wireshark-style summary of TServer's traffic from the run's
// two accountants: the labelled flow dataset, which counts what each
// sender offered, and TServer's sink, which counts what was delivered.
// It shows top talkers, per-protocol volume, and a per-second rate
// table suitable for ML dataset generation.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"sort"

	"ddosim/ddosim"
	"ddosim/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trafficanalysis:", err)
		os.Exit(1)
	}
}

// flowKey identifies a unidirectional flow, as the flow table keys it.
type flowKey struct {
	proto    string
	src, dst netip.AddrPort
}

// flow is one flow into TServer, summed across its flow records.
type flow struct {
	flowKey
	label          string
	packets, bytes uint64
}

func run() error {
	cfg := ddosim.DefaultConfig(25)
	cfg.AttackDuration = 60
	sim, err := ddosim.New(cfg)
	if err != nil {
		return err
	}
	if err := ddosim.InstallBenignClients(sim.Star(),
		netip.AddrPortFrom(sim.TServer().Addr4(), 80), 5, "sensor"); err != nil {
		return err
	}

	results, err := sim.Run()
	if err != nil {
		return err
	}
	sink := sim.Sink()

	// The flow table checkpoints a flow that outlives its active
	// timeout, so one flow can span several records: sum them. The
	// label is the one the flow was opened with.
	var flows []*flow
	byKey := make(map[flowKey]*flow)
	for _, r := range sim.Flows().Records() {
		if !sim.TServer().HasAddr(r.Dst.Addr()) {
			continue
		}
		key := flowKey{proto: r.Proto, src: r.Src, dst: r.Dst}
		f := byKey[key]
		if f == nil {
			f = &flow{flowKey: key, label: r.Label}
			byKey[key] = f
			flows = append(flows, f)
		}
		f.packets += r.Packets
		f.bytes += r.Bytes
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].bytes > flows[j].bytes })

	fmt.Println("=== Traffic analysis at TServer ===")
	fmt.Println()
	fmt.Printf("packets delivered:  %d\n", sink.RxPackets())
	fmt.Printf("flows into TServer: %d\n", len(flows))
	fmt.Printf("attack window:      %s for %d s, D_received %.1f kbps\n",
		results.AttackIssuedAt, cfg.AttackDuration, results.DReceivedKbps)
	fmt.Println()

	fmt.Println("delivered volume by protocol (wire bytes):")
	for _, p := range []netsim.Protocol{netsim.ProtoUDP, netsim.ProtoTCP} {
		fmt.Printf("  %-5s %12d bytes\n", p, sink.BytesByProto(p))
	}
	fmt.Println()

	// Offered bytes come from the flow records, delivered bytes from
	// the sink's per-source tally; they differ by what the network
	// dropped on the way.
	fmt.Println("top talkers (wire bytes offered by the flow, delivered from its source):")
	for i, f := range flows[:min(8, len(flows))] {
		fmt.Printf("  %2d. %-22s %-5s %-7s %8d pkts %10d offered %10d delivered\n",
			i+1, f.src, f.proto, f.label, f.packets, f.bytes, sink.BytesFrom(f.src.Addr()))
	}
	fmt.Println()

	// Per-second rate around the attack boundary: quiet, ramp,
	// steady — the labeled windows an ML pipeline would train on.
	from := int64(results.AttackIssuedAt/ddosim.Second) - 3
	fmt.Println("per-second received rate around the attack start (kbps):")
	for sec := from; sec < from+12; sec++ {
		marker := ""
		if sec == from+3 {
			marker = "  <- attack order"
		}
		fmt.Printf("  t=%4ds  %10.1f%s\n", sec, sink.KbpsSeries(sec, sec+1)[0], marker)
	}
	fmt.Println()
	fmt.Println("The same labelled flow records are exportable as CSV via")
	fmt.Println("`ddosim -flows-out` — the dataset-generation workflow of §V-A.")
	return nil
}
