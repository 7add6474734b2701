package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pathmark/internal/cache"
	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// demoCipher is the default -key cipher ("pathmark":"PLDI2004" as hex),
// used by the in-memory demo, which takes no -key flag.
func demoCipher() feistel.Key {
	return feistel.KeyFromUint64(0x6b72616d68746170, 0x504c444932303034)
}

// fleetManifest is the public half of a shipped fleet: which watermark
// went to which customer copy. It carries no secrets — recognition still
// needs the keyfile (input, cipher, primes), which fleet embed writes
// separately via -savekey.
//
// Version 2 adds two parallel arrays: Customers (human-readable IDs,
// unique across the fleet) and Digests (hex SHA-256 of each shipped
// copy, as computed by wm.ProgramDigest). Version 1 manifests — no
// customers, no digests — still load; the extra validation simply does
// not apply.
type fleetManifest struct {
	Version    int      `json:"version"`
	Base       string   `json:"base"`       // source program file (informational)
	Copies     []string `json:"copies"`     // per-customer output file names
	Watermarks []string `json:"watermarks"` // decimal, parallel to Copies
	Customers  []string `json:"customers,omitempty"`
	Digests    []string `json:"digests,omitempty"` // hex program digests, parallel to Copies
}

const fleetManifestVersion = 2

// manifestError is a content problem in a fleet manifest (duplicate
// customer IDs, mismatched digests, torn parallel arrays). It is a
// usage-class failure — the invocation named a bad manifest — so the
// CLI maps it to exit code 2, distinct from hard errors (1).
type manifestError struct {
	Path string
	Msg  string
}

func (e *manifestError) Error() string {
	return fmt.Sprintf("fleet manifest %s: %s", e.Path, e.Msg)
}

// manifestExit terminates the command on a manifest load failure:
// content errors print and return exitUsage, everything else (I/O,
// permissions) is a hard error.
func manifestExit(err error) int {
	var me *manifestError
	if errors.As(err, &me) {
		fmt.Fprintln(os.Stderr, "pathmark:", me)
		return exitUsage
	}
	fatal(err)
	return exitError // unreachable; fatal exits
}

// customerName labels copy i for output: the manifest's customer ID
// when present, the bare index otherwise (v1 manifests).
func (m *fleetManifest) customerName(i int) string {
	if i < len(m.Customers) {
		return m.Customers[i]
	}
	return "customer " + strconv.Itoa(i)
}

// cmdFleet dispatches the fleet modes and returns the process exit code.
func cmdFleet(args []string) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: pathmark fleet {embed|identify|grade|demo} [flags]")
		return exitUsage
	}
	switch args[0] {
	case "embed":
		return cmdFleetEmbed(args[1:])
	case "identify":
		return cmdFleetIdentify(args[1:])
	case "grade":
		return cmdFleetGrade(args[1:])
	case "demo":
		return cmdFleetDemo(args[1:])
	default:
		fmt.Fprintln(os.Stderr, "usage: pathmark fleet {embed|identify|grade|demo} [flags]")
		return exitUsage
	}
}

// cmdFleetEmbed embeds n distinct fingerprints into one base program —
// the batch path, which traces and analyzes the host once — and writes
// the copies, a manifest, and (with -savekey) the shared keyfile.
func cmdFleetEmbed(args []string) int {
	fs := flag.NewFlagSet("fleet embed", flag.ExitOnError)
	var c common
	c.register(fs)
	outdir := fs.String("outdir", "", "directory for the fingerprinted copies and manifest")
	n := fs.Int("n", 4, "fleet size (number of fingerprinted copies)")
	pieces := fs.Int("pieces", 0, "pieces per copy (0 = one per prime pair)")
	seed := fs.Int64("seed", 1, "base randomness seed (copy i uses seed+i)")
	wseed := fs.Int64("wseed", 1, "watermark generation seed")
	workers := fs.Int("workers", 0, "embedding goroutines (0 = one per CPU)")
	saveKey := fs.String("savekey", "", "write the shared watermark key to this file")
	customers := fs.String("customers", "", "comma-separated customer IDs, one per copy (default customer-000...)")
	fs.Parse(args)
	if *outdir == "" {
		fatal(fmt.Errorf("missing -outdir"))
	}
	if *n < 1 {
		fatal(fmt.Errorf("-n must be at least 1"))
	}
	ids := make([]string, *n)
	for i := range ids {
		ids[i] = fmt.Sprintf("customer-%03d", i)
	}
	if *customers != "" {
		given := strings.Split(*customers, ",")
		if len(given) != *n {
			fatal(fmt.Errorf("-customers names %d IDs for %d copies", len(given), *n))
		}
		seen := map[string]bool{}
		for i, id := range given {
			id = strings.TrimSpace(id)
			if id == "" || seen[id] {
				fatal(fmt.Errorf("-customers: empty or duplicate ID %q", id))
			}
			seen[id] = true
			ids[i] = id
		}
	}
	reg := c.beginObs()
	p := c.loadProgram()
	key := c.wmKey()
	ctx, cancel := c.ctx()
	defer cancel()

	ws := make([]*big.Int, *n)
	for i := range ws {
		ws[i] = wm.RandomWatermark(c.wbits, uint64(*wseed)+uint64(i))
	}
	t0 := time.Now()
	copies, err := wm.EmbedBatch(p, ws, key, wm.BatchOptions{
		EmbedOptions: wm.EmbedOptions{
			Pieces: *pieces, Seed: *seed,
			Ctx: ctx, StepLimit: c.maxSteps, Obs: reg,
		},
		Workers: *workers,
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}
	man := fleetManifest{Version: fleetManifestVersion, Base: c.in}
	var text []byte
	for _, cp := range copies {
		name := fmt.Sprintf("copy-%03d.pasm", cp.Index)
		// One render per copy: the file holds the canonical text, and its
		// digest is wm.ProgramDigest(cp.Program) taken from the same bytes.
		text = vm.AppendDump(text[:0], cp.Program)
		if err := os.WriteFile(filepath.Join(*outdir, name), text, 0o644); err != nil {
			fatal(err)
		}
		digest := cache.DigestBytes(text)
		man.Copies = append(man.Copies, name)
		man.Watermarks = append(man.Watermarks, cp.Watermark.String())
		man.Customers = append(man.Customers, ids[cp.Index])
		man.Digests = append(man.Digests, hex.EncodeToString(digest[:]))
	}
	manBytes, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*outdir, "fleet.json"), append(manBytes, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if *saveKey != "" {
		if err := wm.SaveKeyFile(*saveKey, key); err != nil {
			fatal(err)
		}
		fmt.Printf("key written to %s (keep it secret)\n", *saveKey)
	}
	fmt.Printf("embedded %d fingerprinted copies in %v (%v/copy amortized) into %s\n",
		len(copies), elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(len(copies))).Round(time.Millisecond), *outdir)
	c.finishObs()
	return exitOK
}

// loadManifest reads and validates a fleet manifest. Content problems —
// torn parallel arrays, duplicate customer IDs, malformed digests or
// watermarks — come back as *manifestError so callers can exit with the
// usage code instead of masquerading them as hard failures; only the
// file read itself returns an untyped error.
func loadManifest(path string) (*fleetManifest, []*big.Int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	bad := func(format string, args ...any) error {
		return &manifestError{Path: path, Msg: fmt.Sprintf(format, args...)}
	}
	var man fleetManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, nil, bad("not valid JSON: %v", err)
	}
	if man.Version < 1 || man.Version > fleetManifestVersion {
		return nil, nil, bad("unsupported version %d (this build reads 1..%d)", man.Version, fleetManifestVersion)
	}
	if len(man.Watermarks) == 0 || len(man.Copies) != len(man.Watermarks) {
		return nil, nil, bad("%d copies vs %d watermarks", len(man.Copies), len(man.Watermarks))
	}
	if len(man.Customers) > 0 {
		if len(man.Customers) != len(man.Copies) {
			return nil, nil, bad("%d customers vs %d copies", len(man.Customers), len(man.Copies))
		}
		seen := make(map[string]int, len(man.Customers))
		for i, id := range man.Customers {
			if id == "" {
				return nil, nil, bad("customer %d has an empty ID", i)
			}
			if j, dup := seen[id]; dup {
				return nil, nil, bad("duplicate customer ID %q (copies %d and %d)", id, j, i)
			}
			seen[id] = i
		}
	}
	if len(man.Digests) > 0 {
		if len(man.Digests) != len(man.Copies) {
			return nil, nil, bad("%d digests vs %d copies", len(man.Digests), len(man.Copies))
		}
		for i, d := range man.Digests {
			raw, err := hex.DecodeString(d)
			if err != nil || len(raw) != len(cache.Digest{}) {
				return nil, nil, bad("copy %d: malformed program digest %q", i, d)
			}
		}
	}
	ws := make([]*big.Int, len(man.Watermarks))
	for i, s := range man.Watermarks {
		w, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return nil, nil, bad("bad watermark %q", s)
		}
		ws[i] = w
	}
	return &man, ws, nil
}

// verifyCopyDigest checks a loaded copy against the manifest's recorded
// program digest (v2 manifests; v1 has none and passes vacuously). A
// mismatch means the file on disk is not the program that was shipped —
// grading it against the manifest's watermark table would attribute
// results to the wrong customer, so it is refused as a manifest error.
func verifyCopyDigest(man *fleetManifest, manifestPath string, i int, p *vm.Program) error {
	if i >= len(man.Digests) {
		return nil
	}
	got := wm.ProgramDigest(p)
	if want := man.Digests[i]; hex.EncodeToString(got[:]) != want {
		return &manifestError{Path: manifestPath, Msg: fmt.Sprintf(
			"copy %s: program digest mismatch (manifest %s, file %s) — file changed since embedding",
			man.Copies[i], want, hex.EncodeToString(got[:]))}
	}
	return nil
}

// cmdFleetIdentify recognizes a suspect program under the fleet's shared
// key and names the customer whose watermark it carries. Exit codes: 0
// identified, 3 no customer matched, 1 hard error.
func cmdFleetIdentify(args []string) int {
	fs := flag.NewFlagSet("fleet identify", flag.ExitOnError)
	var c common
	c.register(fs)
	manifest := fs.String("manifest", "", "fleet manifest (fleet.json) naming each customer's watermark")
	workers := fs.Int("workers", 0, "scan goroutines (0 = one per CPU)")
	fs.Parse(args)
	if *manifest == "" {
		fatal(fmt.Errorf("missing -manifest"))
	}
	reg := c.beginObs()
	man, ws, err := loadManifest(*manifest)
	if err != nil {
		return manifestExit(err)
	}
	p := c.loadProgram()
	ctx, cancel := c.ctx()
	defer cancel()
	rec, err := wm.RecognizeWithOpts(p, c.wmKey(), wm.RecognizeOpts{
		Workers: *workers, Ctx: ctx, StepLimit: c.maxSteps, Obs: reg,
	})
	if rec == nil && err != nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathmark: degraded:", err)
	}
	for i, w := range ws {
		if rec.Matches(w) {
			fmt.Printf("suspect matches copy %s (%s, watermark %d)\n", man.Copies[i], man.customerName(i), w)
			c.finishObs()
			return exitOK
		}
	}
	if rec.Watermark != nil {
		fmt.Printf("recovered watermark %d matches no customer in the manifest\n", rec.Watermark)
	} else {
		fmt.Println("no watermark recovered")
	}
	c.finishObs()
	return exitNoMatch
}

// cmdFleetDemo runs the whole fingerprinting story in memory against the
// MiniCalc workload: batch-embed a fleet, "leak" one copy, identify it by
// corpus recognition, and verify an unmarked copy stays clean. It is the
// CI smoke test for the fleet layer; any discrepancy exits 1.
func cmdFleetDemo(args []string) int {
	fs := flag.NewFlagSet("fleet demo", flag.ExitOnError)
	n := fs.Int("n", 6, "fleet size")
	leak := fs.Int("leak", -1, "customer index whose copy 'leaks' (-1: the last)")
	seed := fs.Int64("seed", 1, "randomness seed")
	fs.Parse(args)
	if *n < 2 {
		fatal(fmt.Errorf("-n must be at least 2"))
	}
	if *leak == -1 {
		*leak = *n - 1
	}
	if *leak < 0 || *leak >= *n {
		fatal(fmt.Errorf("-leak out of range [0,%d)", *n))
	}

	host := workloads.MiniCalc()
	input := workloads.CalcSum(10, 20)
	key, err := wm.NewKey(input, demoCipher(), 64)
	if err != nil {
		fatal(err)
	}
	ws := make([]*big.Int, *n)
	for i := range ws {
		ws[i] = wm.RandomWatermark(64, uint64(*seed)*1000+uint64(i))
	}

	t0 := time.Now()
	copies, err := wm.EmbedBatch(host, ws, key, wm.BatchOptions{
		EmbedOptions: wm.EmbedOptions{Seed: *seed},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fleet: embedded %d fingerprinted MiniCalc copies in %v (one shared trace/analysis)\n",
		*n, time.Since(t0).Round(time.Millisecond))

	// The leak: match the suspect (plus a clean decoy) against the fleet
	// key with shared caches — the corpus path.
	fc := wm.NewFleetCaches(0, 0)
	suspects := []*vm.Program{copies[*leak].Program, host}
	res, err := wm.RecognizeCorpus(suspects, []*wm.Key{key}, wm.CorpusOpts{Caches: fc})
	if err != nil {
		fatal(err)
	}
	leaked := res.Recognitions[0][0]
	identified := -1
	for i, w := range ws {
		if leaked.Matches(w) {
			identified = i
			break
		}
	}
	if identified != *leak {
		fmt.Fprintf(os.Stderr, "pathmark: demo FAILED: leaked copy identified as %d, want %d\n", identified, *leak)
		return exitError
	}
	fmt.Printf("fleet: leaked copy identified as customer %d (watermark %d)\n", identified, ws[identified])
	clean := res.Recognitions[1][0]
	for _, w := range ws {
		if clean.Matches(w) {
			fmt.Fprintln(os.Stderr, "pathmark: demo FAILED: unmarked host matched a customer")
			return exitError
		}
	}
	fmt.Println("fleet: unmarked host matches no customer (as it should)")
	fmt.Printf("fleet: caches — traces %d run / %d reused\n",
		res.TraceStats.Misses, res.TraceStats.Hits)
	return exitOK
}
