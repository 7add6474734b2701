// Package tournament is the robustness campaign engine: it runs an
// attack × strength × fleet grid over fingerprinted copies of one host
// program, grades every attacked copy with wm.RecognizeCorpus, and emits
// a deterministic survival matrix — the systematic reproduction of the
// paper's §5 evaluation tables, extended with the coalition attacks the
// paper never models.
//
// The engine inherits the crash-safety contract of the jobs tier it is
// built on: every completed cell is appended to a fsync'd JSONL journal
// (jobs.WAL) before it counts, a killed run resumes without re-grading
// any journaled cell, and the final matrix.json is byte-identical at any
// worker count and across any number of kill/resume cycles.
package tournament

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"pathmark/internal/attacks"
	"pathmark/internal/cache"
	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

// ManifestVersion is the campaign manifest schema version.
const ManifestVersion = 1

// FleetSpec sizes one fingerprinted fleet of the grid.
type FleetSpec struct {
	// Size is the number of fingerprinted copies (customers).
	Size int `json:"size"`
	// Harden embeds the fleet with wm.BatchOptions.Harden — shared
	// placement, coalition-safe generators.
	Harden bool `json:"harden,omitempty"`
}

// AttackSpec names one attack column of the grid: a single catalog entry,
// a composed sequence of catalog entries (applied in order), or a
// collusion attack ("strip" or "randomize"). Exactly one of the three
// fields may be set.
type AttackSpec struct {
	Name      string   `json:"name,omitempty"`
	Sequence  []string `json:"sequence,omitempty"`
	Collusion string   `json:"collusion,omitempty"`
}

// Label renders the spec for reports and matrix headers.
func (a AttackSpec) Label() string {
	switch {
	case a.Collusion != "":
		return "collusion-" + a.Collusion
	case len(a.Sequence) > 0:
		s := a.Sequence[0]
		for _, n := range a.Sequence[1:] {
			s += "→" + n
		}
		return s
	default:
		return a.Name
	}
}

// Manifest is the campaign description — the tournament's analog of the
// fleet.json manifest: everything needed to reproduce the grid bit for
// bit. Strength means "times the attack (or attack sequence) is applied"
// for catalog attacks and "coalition size, victim included" for collusion
// attacks (clamped to the fleet size).
type Manifest struct {
	Version int `json:"version"`
	// Host selects the host program: "minicalc", "jesslike" or
	// "randprog"; HostSeed/HostMethods/HostBlock size the generated ones
	// (0 = workload defaults, except jesslike which defaults to a small
	// 12×40 instance so campaigns stay fast).
	Host        string `json:"host"`
	HostSeed    int64  `json:"host_seed,omitempty"`
	HostMethods int    `json:"host_methods,omitempty"`
	HostBlock   int    `json:"host_block,omitempty"`
	// Input is the secret input of the watermark key.
	Input []int64 `json:"input,omitempty"`
	// WBits is the watermark width in bits; Seed drives every derived
	// secret (cipher key, per-customer watermarks, placement, attack rng).
	WBits int   `json:"wbits"`
	Seed  int64 `json:"seed"`
	// Pieces is the per-copy piece budget (0 = one per prime pair; the
	// demo uses the lean r-1 spanning budget so every piece is
	// identification-critical).
	Pieces int `json:"pieces,omitempty"`
	// The grid axes.
	Fleets    []FleetSpec  `json:"fleets"`
	Attacks   []AttackSpec `json:"attacks"`
	Strengths []int        `json:"strengths"`
}

// ManifestError reports an unusable manifest — a caller error (exit code
// 2 at the CLI), never a campaign failure.
type ManifestError struct{ Msg string }

func (e *ManifestError) Error() string { return "tournament: " + e.Msg }

func manifestErrf(format string, args ...any) error {
	return &ManifestError{Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the manifest against the schema and the attack catalog.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return manifestErrf("manifest version %d, want %d", m.Version, ManifestVersion)
	}
	switch m.Host {
	case "minicalc", "jesslike", "randprog":
	default:
		return manifestErrf("unknown host %q (want minicalc, jesslike or randprog)", m.Host)
	}
	if m.WBits <= 0 || m.WBits > 256 {
		return manifestErrf("wbits %d out of range (1..256)", m.WBits)
	}
	if len(m.Fleets) == 0 || len(m.Attacks) == 0 || len(m.Strengths) == 0 {
		return manifestErrf("grid needs at least one fleet, one attack and one strength")
	}
	for i, f := range m.Fleets {
		if f.Size < 1 || f.Size > 1024 {
			return manifestErrf("fleet %d size %d out of range (1..1024)", i, f.Size)
		}
	}
	for i, s := range m.Strengths {
		if s < 1 || s > 64 {
			return manifestErrf("strength %d value %d out of range (1..64)", i, s)
		}
	}
	for i, a := range m.Attacks {
		set := 0
		if a.Name != "" {
			set++
			if _, ok := attacks.ByName(a.Name); !ok {
				return manifestErrf("attack %d: unknown catalog entry %q", i, a.Name)
			}
		}
		if len(a.Sequence) > 0 {
			set++
			for _, n := range a.Sequence {
				if _, ok := attacks.ByName(n); !ok {
					return manifestErrf("attack %d: unknown catalog entry %q in sequence", i, n)
				}
			}
		}
		if a.Collusion != "" {
			set++
			if a.Collusion != "strip" && a.Collusion != "randomize" {
				return manifestErrf("attack %d: collusion mode %q (want strip or randomize)", i, a.Collusion)
			}
		}
		if set != 1 {
			return manifestErrf("attack %d: exactly one of name, sequence, collusion must be set", i)
		}
	}
	return nil
}

// Digest content-addresses the campaign: the SHA-256 of the canonical
// manifest encoding. The journal header pins it, so a resume over a
// journal from a different campaign is refused.
func (m *Manifest) Digest() (cache.Digest, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return cache.Digest{}, fmt.Errorf("tournament: encode manifest: %w", err)
	}
	return cache.DigestBytes(b), nil
}

// DigestHex is Digest rendered for journal headers and reports.
func (m *Manifest) DigestHex() (string, error) {
	d, err := m.Digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:]), nil
}

// BuildHost constructs the manifest's host program.
func (m *Manifest) BuildHost() (*vm.Program, error) {
	switch m.Host {
	case "minicalc":
		return workloads.MiniCalc(), nil
	case "jesslike":
		o := workloads.JessLikeOptions{
			Seed: m.HostSeed, Methods: m.HostMethods, BlockSize: m.HostBlock,
		}
		if o.Methods == 0 {
			o.Methods = 12
		}
		if o.BlockSize == 0 {
			o.BlockSize = 40
		}
		return workloads.JessLike(o), nil
	case "randprog":
		return workloads.RandomProgram(workloads.RandProgOptions{
			Seed: m.HostSeed, Methods: m.HostMethods, Statements: m.HostBlock,
		}), nil
	default:
		return nil, manifestErrf("unknown host %q", m.Host)
	}
}

// LoadManifest reads and validates a campaign manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &ManifestError{Msg: fmt.Sprintf("read manifest: %v", err)}
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, &ManifestError{Msg: fmt.Sprintf("parse manifest %s: %v", path, err)}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveManifest writes the manifest as indented JSON.
func SaveManifest(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tournament: encode manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// DemoManifest is the small CI grid: two catalog attacks (one single, one
// composed sequence) at two strengths, both collusion modes, over a
// baseline and a hardened 4-copy fleet of the small jesslike host. Small
// enough for a smoke test, large enough to show the baseline fleet losing
// to the strip coalition and the hardened fleet surviving it.
func DemoManifest() *Manifest {
	return &Manifest{
		Version:  ManifestVersion,
		Host:     "jesslike",
		HostSeed: 8,
		WBits:    24,
		Seed:     42,
		Pieces:   2, // r-1 spanning budget for the 3-prime 24-bit basis
		Fleets: []FleetSpec{
			{Size: 4},
			{Size: 4, Harden: true},
		},
		Attacks: []AttackSpec{
			{Name: "nop-insertion-light"},
			{Sequence: []string{"class-encryption(flattening)", "method-inlining", "nop-insertion-light"}},
			{Collusion: "strip"},
			{Collusion: "randomize"},
		},
		Strengths: []int{1, 2},
	}
}

// sortedAttackNames returns the catalog names referenced by the manifest,
// deduplicated — report metadata.
func (m *Manifest) sortedAttackNames() []string {
	seen := map[string]bool{}
	for _, a := range m.Attacks {
		if a.Name != "" {
			seen[a.Name] = true
		}
		for _, n := range a.Sequence {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
