package faults

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// The storage fault class. Where the recognition catalog (faults.go)
// corrupts the *inputs* to the pipeline — traces, keys, programs — this
// class corrupts the *disk under the journaled job engine*: ENOSPC and
// short writes mid-append, failed fsyncs, torn renames, read-side bit
// rot. Each assessment is a kill/restart campaign: a reference run, then
// faulted process lifetimes over one job directory, then recovery with
// the faults disarmed. The durability contract admits exactly two
// endings — the resumed job's result manifest is byte-identical to the
// uninterrupted reference, or the damage is proven by a record checksum
// and the job lands in quarantine with the evidence intact. Anything
// else is a contract violation.

// StorageOutcome classifies one storage-fault campaign.
type StorageOutcome int

const (
	// StorageResumed: the job survived every fault and kill; the final
	// result manifest is byte-identical to the uninterrupted reference.
	StorageResumed StorageOutcome = iota
	// StorageQuarantined: replay proved mid-log corruption (checksum
	// mismatch with verified records after it) and the directory was
	// quarantined cleanly, evidence preserved.
	StorageQuarantined
	// StorageViolated: neither ending — a wrong result, an unclassified
	// terminal error, or a failed quarantine. The chaos test fails on it.
	StorageViolated
)

func (o StorageOutcome) String() string {
	switch o {
	case StorageResumed:
		return "resumed"
	case StorageQuarantined:
		return "quarantined"
	default:
		return "VIOLATED"
	}
}

// StorageFault is one named storage scenario: a deterministic iofault
// schedule applied to every filesystem operation of a journaled job.
type StorageFault struct {
	Name        string
	Description string
	Schedule    []iofault.Fault
}

// StorageCatalog enumerates the named storage scenarios, one per failure
// mode the iofault seam can inject, aimed at the artifacts the job engine
// writes.
func StorageCatalog() []StorageFault {
	return []StorageFault{
		{
			Name:        "enospc-journal",
			Description: "journal append fails with ENOSPC mid-job",
			Schedule:    []iofault.Fault{{Op: iofault.OpWrite, Kind: iofault.KindENOSPC, After: 2, Path: "journal.jsonl"}},
		},
		{
			Name:        "short-write-journal",
			Description: "journal append tears a record in half, then ENOSPC",
			Schedule:    []iofault.Fault{{Op: iofault.OpWrite, Kind: iofault.KindShortWrite, After: 1, Path: "journal.jsonl"}},
		},
		{
			Name:        "fsync-fail-journal",
			Description: "journal fsync fails with EIO; the handle is poisoned",
			Schedule:    []iofault.Fault{{Op: iofault.OpSync, Kind: iofault.KindSyncFail, After: 2, Path: "journal.jsonl"}},
		},
		{
			Name:        "torn-rename-result",
			Description: "the result manifest's publishing rename fails",
			Schedule:    []iofault.Fault{{Op: iofault.OpRename, Kind: iofault.KindTornRename, Path: "result.json"}},
		},
		{
			Name:        "read-flip-journal",
			Description: "a resume reads the journal with one bit flipped (media rot)",
			Schedule:    []iofault.Fault{{Op: iofault.OpRead, Kind: iofault.KindReadFlip, Path: "journal.jsonl"}},
		},
		{
			Name:        "enospc-open",
			Description: "a file open/create fails with ENOSPC",
			Schedule:    []iofault.Fault{{Op: iofault.OpOpen, Kind: iofault.KindOpenFail, After: 3}},
		},
		{
			Name:        "compound-sick-disk",
			Description: "short write, failed fsync and read rot across one job",
			Schedule: []iofault.Fault{
				{Op: iofault.OpWrite, Kind: iofault.KindShortWrite, After: 4},
				{Op: iofault.OpSync, Kind: iofault.KindSyncFail, After: 5},
				{Op: iofault.OpRead, Kind: iofault.KindReadFlip, Path: "journal.jsonl"},
			},
		},
	}
}

// RandomStorageFault derives a randomized schedule from seed — the
// fuzzing leg of the storage chaos harness. The same seed always yields
// the same campaign.
func RandomStorageFault(seed int64, n int) StorageFault {
	return StorageFault{
		Name:        fmt.Sprintf("random-%d", seed),
		Description: fmt.Sprintf("%d faults derived from seed %d", n, seed),
		Schedule:    iofault.Schedule(seed, n),
	}
}

// StorageReport is the result of one storage-fault campaign.
type StorageReport struct {
	Fault     string
	Outcome   StorageOutcome
	Fired     []iofault.Fault // the scheduled faults that actually triggered
	Lifetimes int             // process lifetimes simulated (reference excluded)
	// Quarantined is the destination directory when Outcome is
	// StorageQuarantined.
	Quarantined string
	// Err is the terminal error for quarantined/violated campaigns.
	Err     error
	Elapsed time.Duration
}

// storageSpec builds the job the campaign runs: one marked suspect
// against the host key twice (two grades, so a kill can land between
// them). The per-record fsync stays ON — sync is exactly what several
// scheduled faults target.
func storageSpec(h *Host, opts Options, fs iofault.FS) jobs.Spec {
	return jobs.Spec{
		Suspects: []*vm.Program{h.Prog},
		Keys:     []*wm.Key{h.Key, h.Key},
		Opts: jobs.Options{
			Workers:            1,
			Obs:                opts.Obs,
			FS:                 fs,
			DeterministicTrace: true,
		},
	}
}

// AssessStorage runs one storage-fault campaign: a clean reference run,
// then up to four process lifetimes over a single job directory — the
// first killed after its first grade commits, the first two with the
// fault schedule armed, the rest on a healed disk — and classifies the
// ending against the durability contract.
func AssessStorage(h *Host, sf StorageFault, opts Options) (rep StorageReport) {
	start := time.Now()
	rep = StorageReport{Fault: sf.Name}
	defer func() {
		rep.Elapsed = time.Since(start)
		opts.Obs.Counter("inject.storage." + rep.Outcome.String()).Add(1)
	}()
	violate := func(err error) StorageReport {
		rep.Outcome, rep.Err = StorageViolated, err
		return rep
	}

	root, err := os.MkdirTemp("", "pathmark-inject-storage-*")
	if err != nil {
		return violate(err)
	}
	defer os.RemoveAll(root)
	refDir := filepath.Join(root, "ref")
	jobDir := filepath.Join(root, "job")

	// Reference: the uninterrupted run on a healthy disk.
	if _, err := jobs.Execute(context.Background(), refDir, storageSpec(h, opts, nil)); err != nil {
		return violate(fmt.Errorf("reference run failed: %w", err))
	}
	want, err := os.ReadFile(jobs.ResultPath(refDir))
	if err != nil {
		return violate(err)
	}

	ffs := iofault.NewFaultFS(iofault.OS, sf.Schedule)
	var terminal error
	for life := 0; life < 4; life++ {
		if life == 2 {
			ffs.Disarm() // the disk heals; recovery runs on real semantics
		}
		spec := storageSpec(h, opts, ffs)
		ctx := context.Background()
		if life == 0 {
			// First lifetime dies (kill -9) right after its first grade
			// commits, forcing every later lifetime through journal replay.
			c, cancel := context.WithCancel(ctx)
			defer cancel()
			ctx = c
			spec.Opts.OnEvent = func(ev jobs.GradeEvent) {
				if ev.Completed >= 1 {
					cancel()
				}
			}
		}
		_, terminal = jobs.Execute(ctx, jobDir, spec)
		rep.Lifetimes++
		if life > 0 && (terminal == nil || iofault.IsCorrupt(terminal)) {
			break
		}
	}
	rep.Fired = ffs.Fired()

	switch {
	case iofault.IsCorrupt(terminal):
		// Proven mid-log corruption: the clean ending is quarantine.
		dst, qerr := jobs.Quarantine(nil, root, jobDir, terminal)
		if qerr != nil {
			return violate(fmt.Errorf("quarantine after %v: %w", terminal, qerr))
		}
		if _, err := os.Stat(filepath.Join(dst, "reason.json")); err != nil {
			return violate(fmt.Errorf("quarantine left no reason record: %w", err))
		}
		if _, err := os.Stat(jobs.JournalPath(dst)); err != nil {
			return violate(fmt.Errorf("quarantine lost the corrupt journal evidence: %w", err))
		}
		rep.Outcome, rep.Err, rep.Quarantined = StorageQuarantined, terminal, dst
		return rep
	case terminal != nil:
		return violate(fmt.Errorf("recovery lifetime still failing: %w", terminal))
	}
	got, err := os.ReadFile(jobs.ResultPath(jobDir))
	if err != nil {
		return violate(fmt.Errorf("no result manifest after recovery: %w", err))
	}
	if string(got) != string(want) {
		return violate(fmt.Errorf("resumed result differs from the uninterrupted reference (%d vs %d bytes)", len(got), len(want)))
	}
	rep.Outcome = StorageResumed
	return rep
}

// AssessAllStorage runs the named storage catalog plus extra randomized
// schedules derived from opts.Seed.
func AssessAllStorage(h *Host, randomized int, opts Options) []StorageReport {
	catalog := StorageCatalog()
	reports := make([]StorageReport, 0, len(catalog)+randomized)
	for _, sf := range catalog {
		reports = append(reports, AssessStorage(h, sf, opts))
	}
	for i := 0; i < randomized; i++ {
		sf := RandomStorageFault(opts.Seed+int64(i), 3)
		reports = append(reports, AssessStorage(h, sf, opts))
	}
	return reports
}
