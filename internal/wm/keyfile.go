package wm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pathmark/internal/crt"
	"pathmark/internal/feistel"
	"pathmark/internal/iofault"
)

// keyFile is the serialized form of a Key. The secret input, cipher key
// and prime basis must all travel together: recognition with any component
// missing or altered fails.
type keyFile struct {
	Version int       `json:"version"`
	Input   []int64   `json:"input"`
	Cipher  [4]uint32 `json:"cipher"`
	Primes  []uint64  `json:"primes"`
}

const keyFileVersion = 1

// SaveKey writes the key in its JSON file format.
func SaveKey(w io.Writer, k *Key) error {
	kf := keyFile{
		Version: keyFileVersion,
		Input:   k.Input,
		Cipher:  [4]uint32(k.Cipher),
		Primes:  k.Params.Primes(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(kf)
}

// keyFileCommitHook, when non-nil, runs after SaveKeyFile has fully
// written and synced the temp file but before the rename that publishes
// it. It exists for fault injection only: a hook that truncates the temp
// file or returns an error simulates a crash mid-save, letting tests
// verify that an existing keyfile at the destination survives untouched.
// Production code leaves it nil.
var keyFileCommitHook func(tmpPath string) error

// keyfileFS is the filesystem SaveKeyFile writes through; tests swap in
// an iofault recorder or FaultFS.
var keyfileFS iofault.FS = iofault.OS

// SaveKeyFile writes the key to path atomically: the serialized form goes
// to a temp file in the destination directory first (mode 0600 — the file
// holds the secret input and cipher key) and is renamed over path only
// after a successful write and sync, then the parent directory is
// fsync'd — without that last step the rename itself, not just the
// content, could be lost to a crash. A crash or write error mid-save can
// therefore never leave a torn keyfile at path — the strict LoadKey would
// reject one, silently severing recognition from every copy embedded
// under the key — and any previous keyfile at path survives a failed
// save intact.
func SaveKeyFile(path string, k *Key) error {
	var buf bytes.Buffer
	if err := SaveKey(&buf, k); err != nil {
		return err
	}
	fs := keyfileFS
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wm: save keyfile: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		fs.Remove(tmpName)
		return fmt.Errorf("wm: save keyfile: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("wm: save keyfile: %w", err)
	}
	if keyFileCommitHook != nil {
		if err := keyFileCommitHook(tmpName); err != nil {
			fs.Remove(tmpName)
			return fmt.Errorf("wm: save keyfile: %w", err)
		}
	}
	if err := fs.Rename(tmpName, path); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("wm: save keyfile: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wm: save keyfile: sync dir: %w", err)
	}
	return nil
}

// LoadKeyFile reads a key from the file SaveKeyFile (or any SaveKey
// caller) wrote at path.
func LoadKeyFile(path string) (*Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wm: load keyfile: %w", err)
	}
	defer f.Close()
	return LoadKey(f)
}

// LoadKey reads a key previously written by SaveKey. Malformed input —
// truncated files, type-confused or missing fields, trailing garbage, an
// invalid prime basis or one NewKey would not make — is rejected with a
// *KeyFileError naming the field and byte offset; a load never produces
// a partially zero-valued key, which would make recognition fail
// silently instead of loudly.
func LoadKey(r io.Reader) (*Key, error) {
	dec := json.NewDecoder(r)

	// Decode to raw messages first so each field's damage is attributable:
	// a single-pass struct decode reports only "cannot unmarshal" without
	// saying which component of the key is gone.
	var raw map[string]json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		msg := "malformed JSON"
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			msg = "truncated"
		}
		return nil, &KeyFileError{Offset: dec.InputOffset(), Msg: msg, Cause: err}
	}
	if dec.More() {
		return nil, &KeyFileError{Offset: dec.InputOffset(), Msg: "trailing data after key object"}
	}

	field := func(name string, required bool, dst any) error {
		rm, ok := raw[name]
		if !ok {
			if required {
				return &KeyFileError{Field: name, Offset: -1, Msg: "missing"}
			}
			return nil
		}
		if err := json.Unmarshal(rm, dst); err != nil {
			return &KeyFileError{Field: name, Offset: dec.InputOffset(), Msg: "malformed", Cause: err}
		}
		return nil
	}

	var kf keyFile
	// The secret input may legitimately be empty (programs whose trace
	// does not depend on input), so only its type is validated.
	if err := field("version", true, &kf.Version); err != nil {
		return nil, err
	}
	if err := field("input", false, &kf.Input); err != nil {
		return nil, err
	}
	if err := field("cipher", true, &kf.Cipher); err != nil {
		return nil, err
	}
	if err := field("primes", true, &kf.Primes); err != nil {
		return nil, err
	}

	if kf.Version != keyFileVersion {
		return nil, &KeyFileError{Field: "version", Offset: -1,
			Msg: fmt.Sprintf("unsupported version %d (want %d)", kf.Version, keyFileVersion)}
	}
	// Bound the basis before building it: its pair tables grow as r².
	if len(kf.Primes) > maxPrimes {
		return nil, &KeyFileError{Field: "primes", Offset: -1,
			Msg: fmt.Sprintf("%d primes; a key holds at most %d", len(kf.Primes), maxPrimes)}
	}
	for _, p := range kf.Primes {
		if p <= 1<<(primeBits-1) {
			return nil, &KeyFileError{Field: "primes", Offset: -1,
				Msg: fmt.Sprintf("prime %d is not above 2^%d", p, primeBits-1)}
		}
	}
	params, err := crt.NewParams(kf.Primes)
	if err != nil {
		return nil, &KeyFileError{Field: "primes", Offset: -1, Msg: "invalid prime basis", Cause: err}
	}
	return &Key{
		Input:  kf.Input,
		Cipher: feistel.Key(kf.Cipher),
		Params: params,
	}, nil
}
