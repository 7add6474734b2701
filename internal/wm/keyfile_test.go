package wm

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pathmark/internal/crt"
	"pathmark/internal/iofault"
	"pathmark/internal/vm"
)

func TestSaveLoadKeyRoundTrip(t *testing.T) {
	key := testKey(t, []int64{7, 8, 9}, 128)
	var buf bytes.Buffer
	if err := SaveKey(&buf, key); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Input) != 3 || loaded.Input[2] != 9 {
		t.Errorf("input round trip: %v", loaded.Input)
	}
	if loaded.Cipher != key.Cipher {
		t.Error("cipher key round trip failed")
	}
	if loaded.MaxWatermark().Cmp(key.MaxWatermark()) != 0 {
		t.Error("prime basis round trip failed")
	}
}

func TestLoadedKeyRecognizes(t *testing.T) {
	// A key that has been through serialization must still recognize
	// watermarks embedded with the original.
	p := vm.MustAssemble(gcdSrc)
	key := testKey(t, nil, 64)
	w := RandomWatermark(64, 41)
	marked, _, err := Embed(p, w, key, EmbedOptions{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveKey(&buf, key); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recognize(marked, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Matches(w) {
		t.Error("loaded key failed to recognize")
	}
}

func TestLoadKeyRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99, "primes": [2,3]}`,
		`{"version": 1, "primes": [4,6]}`,
		`{"version": 1, "primes": []}`,
	}
	for i, src := range cases {
		if _, err := LoadKey(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: LoadKey accepted %q", i, src)
		}
	}
}

// TestLoadKeyBoundsBasis: a basis larger than NewKey makes, or with a
// prime NewKey would not pick, is refused on the primes field before
// its pair tables are built. The two probes (16.6 KB and 18.1 KB of JSON)
// would each have allocated hundreds of megabytes; refused, they stay
// under 1 MB. The largest basis NewKey makes still round trips.
func TestLoadKeyBoundsBasis(t *testing.T) {
	doc := func(primes []uint64) []byte {
		b, err := json.Marshal(keyFile{Version: keyFileVersion, Cipher: [4]uint32{1, 2, 3, 4}, Primes: primes})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name   string
		primes []uint64
	}{
		{"first 3000 primes", append([]uint64{2}, crt.DefaultPrimes(2999, 2)...)},
		{"3000 primes above 2^15", crt.DefaultPrimes(3000, primeBits)},
		{"small primes", []uint64{3, 5, 7}},
		{"one small prime", append(crt.DefaultPrimes(3, primeBits), 32749)},
	} {
		data := doc(c.primes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadKey(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		var kfe *KeyFileError
		if !errors.As(err, &kfe) || kfe.Field != "primes" {
			t.Errorf("%s: LoadKey = %v, want a *KeyFileError on primes", c.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s (%d bytes): refusing it allocated %d bytes, want at most 1 MB", c.name, len(data), n)
		}
	}

	wBits := (maxPrimes-2)*(primeBits-1) + primeBits - 2 // the widest watermark at maxPrimes
	key := testKey(t, nil, wBits)
	var buf bytes.Buffer
	if err := SaveKey(&buf, key); err != nil {
		t.Fatal(err)
	}
	if loaded, err := LoadKey(&buf); err != nil || len(loaded.Params.Primes()) != maxPrimes {
		t.Errorf("%d-bit key: LoadKey = %v, want its %d primes back", wBits, err, maxPrimes)
	}
	if _, err := NewKey(nil, testCipher, wBits+1); err == nil {
		t.Errorf("NewKey made a %d-bit key, one prime past the bound", wBits+1)
	}
}

func TestSaveKeyFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wm.key")
	key := testKey(t, []int64{1, 2}, 128)
	if err := SaveKeyFile(path, key); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKeyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cipher != key.Cipher || len(loaded.Input) != 2 ||
		loaded.MaxWatermark().Cmp(key.MaxWatermark()) != 0 {
		t.Error("keyfile round trip lost a component")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm()&0o077 != 0 {
		t.Errorf("keyfile must not be group/world readable: %v %v", fi.Mode(), err)
	}
}

// TestSaveKeyFileAtomic simulates crashes mid-save — a partial write of
// the new content, and a plain failure before the rename — and verifies
// the existing keyfile at the destination is never corrupted: the strict
// loader still returns the ORIGINAL key, and no temp debris is left
// behind.
func TestSaveKeyFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wm.key")
	original := testKey(t, []int64{42}, 128)
	if err := SaveKeyFile(path, original); err != nil {
		t.Fatal(err)
	}
	replacement := testKey(t, []int64{7, 7, 7}, 64)

	defer func() { keyFileCommitHook = nil }()
	for name, hook := range map[string]func(string) error{
		// The save dies after writing only half the payload.
		"partial-write": func(tmp string) error {
			data, err := os.ReadFile(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tmp, data[:len(data)/2], 0o600); err != nil {
				t.Fatal(err)
			}
			return errors.New("simulated crash mid-write")
		},
		// The save dies between write and rename.
		"pre-rename-crash": func(string) error {
			return errors.New("simulated crash before rename")
		},
	} {
		keyFileCommitHook = hook
		if err := SaveKeyFile(path, replacement); err == nil {
			t.Fatalf("%s: simulated crash did not surface as an error", name)
		}
		keyFileCommitHook = nil

		loaded, err := LoadKeyFile(path)
		if err != nil {
			t.Fatalf("%s: existing keyfile corrupted: %v", name, err)
		}
		if loaded.Cipher != original.Cipher || len(loaded.Input) != 1 || loaded.Input[0] != 42 {
			t.Fatalf("%s: loaded key is not the original", name)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Errorf("%s: temp debris left in directory: %v", name, entries)
		}
	}

	// With the hook gone the replacement lands, fully.
	if err := SaveKeyFile(path, replacement); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKeyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cipher != replacement.Cipher || len(loaded.Input) != 3 {
		t.Error("replacement key did not land after a clean save")
	}
}

// keyfileRecorder logs the op sequence SaveKeyFile sends through the
// filesystem seam.
type keyfileRecorder struct {
	iofault.FS
	ops []string
}

func (r *keyfileRecorder) CreateTemp(dir, pattern string) (iofault.File, error) {
	r.ops = append(r.ops, "createtemp")
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &keyfileRecorderFile{File: f, rec: r}, nil
}

func (r *keyfileRecorder) Rename(oldpath, newpath string) error {
	r.ops = append(r.ops, "rename")
	return r.FS.Rename(oldpath, newpath)
}

func (r *keyfileRecorder) SyncDir(dir string) error {
	r.ops = append(r.ops, "syncdir:"+dir)
	return r.FS.SyncDir(dir)
}

type keyfileRecorderFile struct {
	iofault.File
	rec *keyfileRecorder
}

func (f *keyfileRecorderFile) Sync() error {
	f.rec.ops = append(f.rec.ops, "sync")
	return f.File.Sync()
}

// TestSaveKeyFileSyncsParentDir is the regression test for the missing
// durability step: after the rename publishes the keyfile, the parent
// directory must be fsync'd — a crash right after rename must not be
// able to lose the directory entry, which would silently sever
// recognition from every copy embedded under the key.
func TestSaveKeyFileSyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	rec := &keyfileRecorder{FS: iofault.OS}
	keyfileFS = rec
	defer func() { keyfileFS = iofault.OS }()

	path := filepath.Join(dir, "wm.key")
	if err := SaveKeyFile(path, testKey(t, []int64{1}, 64)); err != nil {
		t.Fatal(err)
	}
	want := []string{"createtemp", "sync", "rename", "syncdir:" + dir}
	if len(rec.ops) != len(want) {
		t.Fatalf("op sequence = %v, want %v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("op %d = %q, want %q (full sequence %v)", i, rec.ops[i], want[i], rec.ops)
		}
	}
	if _, err := LoadKeyFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestSaveKeyFileSyncDirFailureSurfaces: a failed directory fsync means
// the publish may not be durable — the save must report it.
func TestSaveKeyFileSyncDirFailureSurfaces(t *testing.T) {
	keyfileFS = iofault.NewFaultFS(iofault.OS, []iofault.Fault{
		{Op: iofault.OpSyncDir, Kind: iofault.KindSyncFail},
	})
	defer func() { keyfileFS = iofault.OS }()
	path := filepath.Join(t.TempDir(), "wm.key")
	err := SaveKeyFile(path, testKey(t, []int64{1}, 64))
	if err == nil {
		t.Fatal("SaveKeyFile swallowed a directory fsync failure")
	}
	if !iofault.IsStorageFault(err) {
		t.Fatalf("dir fsync failure not classified as storage fault: %v", err)
	}
}
