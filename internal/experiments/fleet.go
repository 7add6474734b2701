package experiments

import (
	"fmt"
	"math/big"

	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// FleetPoint is one fleet-size measurement of the fingerprinting
// experiment (§1: a distinct watermark per shipped copy; a leaked copy is
// traced to its customer by the recovered W).
type FleetPoint struct {
	FleetSize  int
	Identified int // leaked copies traced to the right customer
	CleanOK    bool
	// TracesRun / Pairs quantifies the corpus-level trace amortization:
	// every suspect is traced once per secret input, not once per key.
	TracesRun, Pairs int
	// Decrypted sums Recognition.Decrypted over the corpus: the windows
	// that survived the pre-decrypt filters and went through the cipher.
	Decrypted int
}

func fleetSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{4}
	}
	return []int{4, 8, 16}
}

// FleetIdentification runs the paper's §1 fingerprinting scenario at
// corpus scale: batch-embed a fleet of distinctly-watermarked copies of
// one host, then identify every copy (plus one unmarked control) against
// the real key and a decoy key with RecognizeCorpus. Reported per fleet
// size: identification accuracy, the trace amortization (traces actually
// run vs suspect×key pairs), and the scan work per corpus.
func FleetIdentification(cfg Config) ([]FleetPoint, *Table) {
	sizes := fleetSizes(cfg)
	points := make([]FleetPoint, len(sizes))
	cfg.forEach("fleet", len(sizes), func(si int) {
		n := sizes[si]
		seed := pointSeed(cfg.Seed, "fleet", si)
		host := workloads.JessLike(workloads.JessLikeOptions{Seed: 8, Methods: 30, BlockSize: 100})
		key, err := wm.NewKey(nil, feistel.KeyFromUint64(uint64(cfg.Seed)+1, 0x504c444932303034), 64)
		if err != nil {
			panic(err)
		}
		ws := make([]*big.Int, n)
		for i := range ws {
			ws[i] = wm.RandomWatermark(64, uint64(seed)+uint64(i))
		}
		copies, err := wm.EmbedBatch(host, ws, key, wm.BatchOptions{
			EmbedOptions: wm.EmbedOptions{
				Seed: seed, Pieces: len(key.Params.Primes()) - 1, Ctx: cfg.Ctx,
			},
		})
		if err != nil {
			panic(fmt.Sprintf("fleet %d: %v", n, err))
		}

		// Every customer's copy leaks, plus one unmarked control; matched
		// against the real fleet key and one decoy.
		suspects := make([]*vm.Program, 0, n+1)
		for _, c := range copies {
			suspects = append(suspects, c.Program)
		}
		suspects = append(suspects, host)
		decoy, err := wm.NewKey(nil, feistel.KeyFromUint64(uint64(seed)|1, 3), 64)
		if err != nil {
			panic(err)
		}
		keys := []*wm.Key{key, decoy}
		res, err := wm.RecognizeCorpus(suspects, keys, wm.CorpusOpts{Ctx: cfg.Ctx, Obs: cfg.Obs})
		if err != nil {
			panic(fmt.Sprintf("fleet %d corpus: %v", n, err))
		}

		// A suspect identifies as customer i when its recognition under the
		// real key recovers exactly ws[i]; the decoy key must never match.
		customer := func(s int) int {
			for i, w := range ws {
				if res.Recognitions[s][0].Matches(w) {
					return i
				}
			}
			return -1
		}
		p := FleetPoint{FleetSize: n, Pairs: len(suspects) * len(keys)}
		for i := range copies {
			if customer(i) == i {
				p.Identified++
			}
		}
		p.CleanOK = customer(n) == -1
		for s := range suspects {
			for _, w := range ws {
				if res.Recognitions[s][1].Matches(w) {
					p.CleanOK = false
				}
			}
		}
		p.TracesRun = res.Traces
		for _, row := range res.Recognitions {
			for _, rec := range row {
				if rec != nil {
					p.Decrypted += rec.Decrypted
				}
			}
		}
		points[si] = p
	})

	table := &Table{
		Title: "Fleet identification: batch fingerprinting + corpus recognition (§1 scenario)",
		Columns: []string{"fleet size", "identified", "clean control",
			"traces run / pairs", "windows decrypted"},
		Notes: []string{
			"each customer's leaked copy must be traced to exactly its own watermark",
			"suspects are traced once per distinct (program, input), not once per key",
			"windows decrypted = filter survivors batch-decrypted over the corpus",
		},
	}
	for _, p := range points {
		table.Rows = append(table.Rows, []string{
			itoa(p.FleetSize),
			fmt.Sprintf("%d/%d", p.Identified, p.FleetSize),
			boolStr(p.CleanOK),
			fmt.Sprintf("%d/%d", p.TracesRun, p.Pairs),
			itoa(p.Decrypted),
		})
	}
	return points, table
}
