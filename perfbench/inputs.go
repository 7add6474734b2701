package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"

	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// Input generation. Everything a workload feeds the program is derived
// from the workload seed here, together with the ground truth the
// oracle checks against: the watermark each marked copy carries, or nil
// for an unmarked host, whose expected verdict is "no match". The
// expected verdicts are fixed when the inputs are made and never read
// back from the code under test.

const wBits = 128

// Host kinds. Jess-like is large code with a short trace, CaffeineMark-
// like is small code with a long trace, gcd is tiny on both axes.
const (
	hostCaffeine = "caffeine"
	hostJess     = "jess"
	hostGCD      = "gcd"
)

// Pieces per copy, as in the paper's evaluation (§5.1): 64 for the
// CaffeineMark suite, 128 for the large program; 0 = one per prime pair.
var piecesFor = map[string]int{hostCaffeine: 64, hostJess: 128, hostGCD: 0}

func makeHost(kind string, seed int64) *vm.Program {
	switch kind {
	case hostCaffeine:
		return workloads.CaffeineMark()
	case hostJess:
		return workloads.JessLike(workloads.JessLikeOptions{Seed: seed, Methods: 60, BlockSize: 150})
	default:
		return workloads.GCD()
	}
}

// item is one (program, key) pair with its expected verdict.
type item struct {
	kind   string
	host   *vm.Program
	prog   *vm.Program
	key    *wm.Key
	keyDoc []byte   // the keyfile document, as a client would send it
	want   *big.Int // embedded watermark; nil = unmarked, expect no match
}

func randomKey(rng *rand.Rand) *wm.Key {
	k, err := wm.NewKey(nil, feistel.KeyFromUint64(rng.Uint64(), rng.Uint64()), wBits)
	if err != nil {
		panic(err) // wBits is a valid constant
	}
	return k
}

func keyDoc(k *wm.Key) []byte {
	var buf bytes.Buffer
	if err := wm.SaveKey(&buf, k); err != nil {
		panic(err) // encoding an in-memory key into a buffer cannot fail
	}
	return buf.Bytes()
}

// verdictOK is the oracle: a marked copy must recover exactly its own
// watermark with full coverage; an unmarked host must not produce a
// full-coverage watermark at all.
func verdictOK(want, got *big.Int, full bool) bool {
	if want == nil {
		return got == nil || !full
	}
	return full && got != nil && got.Cmp(want) == 0
}

// Placement seeds are fixed per copy slot, not drawn from the workload
// seed. Where the pieces land decides a copy's trace length: a piece in
// a hot loop multiplies it (one CaffeineMark-like copy in sixteen runs
// 2-13x the steps of the others). Fixed placement keeps the cost mix of
// every run the same, while the workload seed varies the hosts, keys
// and watermarks.

// fleet is one host fingerprinted for many customers under one key.
type fleet struct {
	kind   string
	host   *vm.Program
	key    *wm.Key
	copies []wm.Fingerprint
}

func makeFleet(kind string, rng *rand.Rand, n int) (*fleet, error) {
	host := makeHost(kind, rng.Int63())
	key := randomKey(rng)
	ws := make([]*big.Int, n)
	for i := range ws {
		ws[i] = wm.RandomWatermark(wBits, rng.Uint64())
	}
	copies, err := wm.EmbedBatch(host, ws, key, wm.BatchOptions{
		EmbedOptions: wm.EmbedOptions{Pieces: piecesFor[kind], Seed: 1}, // copy i: placement seed 1+i
	})
	if err != nil {
		return nil, fmt.Errorf("embed %s fleet: %w", kind, err)
	}
	return &fleet{kind: kind, host: host, key: key, copies: copies}, nil
}

// recognizeMix is the recognize workload's composition: marked copies of
// each host kind, each under its own key, plus unmarked hosts. The
// CaffeineMark-like majority keeps the median and p90 inside one cost
// cluster, so they do not jump between clusters from seed to seed.
var recognizeMix = []struct {
	kind   string
	marked bool
	n      int
}{
	{hostCaffeine, true, 7},
	{hostJess, true, 2},
	{hostGCD, true, 1},
	{hostCaffeine, false, 1},
	{hostJess, false, 1},
}

func recognizeInputs(seed int64) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []item
	slot := int64(0)
	for _, m := range recognizeMix {
		for i := 0; i < m.n; i++ {
			slot++
			host := makeHost(m.kind, rng.Int63())
			it := item{kind: m.kind, host: host, prog: host, key: randomKey(rng)}
			if m.marked {
				it.want = wm.RandomWatermark(wBits, rng.Uint64())
				p, _, err := wm.Embed(host, it.want, it.key, wm.EmbedOptions{
					Pieces: piecesFor[m.kind], Seed: slot,
				})
				if err != nil {
					return nil, fmt.Errorf("embed %s: %w", m.kind, err)
				}
				it.prog = p
			}
			it.keyDoc = keyDoc(it.key)
			items = append(items, it)
		}
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	return items, nil
}

// fingerprint content-addresses generated inputs: program disassemblies,
// key documents, expected watermarks and any extra byte strings (trace
// bit-strings). Two setups from one seed must agree on it.
type fingerprint struct{ h [sha256.Size]byte }

func (f *fingerprint) add(parts ...[]byte) {
	h := sha256.New()
	h.Write(f.h[:])
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	copy(f.h[:], h.Sum(nil))
}

func (f *fingerprint) addItem(it item) {
	want := "none"
	if it.want != nil {
		want = it.want.String()
	}
	d := wm.ProgramDigest(it.prog)
	f.add([]byte(it.kind), d[:], it.keyDoc, []byte(want))
}

func (f *fingerprint) String() string { return hex.EncodeToString(f.h[:]) }
