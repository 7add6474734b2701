package crt

// Statement framing: a structural check field packed into the headroom
// bits of the 64-bit cipher block above the basis capacity.
//
// NewParams caps the enumeration capacity below 2^63, so every encoded
// statement leaves at least one — for realistic 16-bit-prime bases,
// twenty-plus — unused high bits in its block. Framing fills those bits
// with a deterministic function of the payload (a 16-bit magic constant
// mixed with a parity fold of the encoding, truncated to the available
// headroom), giving the recognizer a second structural rejection layer
// after decryption: a garbage window must now clear BOTH the capacity
// range check (~ capacity/2^payloadBits) and the check-field match
// (2^-(64-payloadBits)), i.e. pass with probability capacity/2^64 overall
// instead of capacity/2^payloadBits.
//
// The check is lossless by construction — Unframe(Frame(enc)) == enc for
// every enc < Capacity(), with no randomness anywhere — which is what
// lets the scan kernel apply it unconditionally: unlike the statistical
// popcount-style prefilters it can never reject a genuinely embedded
// piece. FuzzFramingLossless pins that contract.

// frameMagic is the 16-bit constant mixed into the check field; the fold
// of the payload is XORed in so the field also acts as a parity over the
// statement index and residue (a corrupted payload bit flips the fold
// with probability 1/2 per 16-bit column).
const frameMagic = 0x9d57

// frameFold16 collapses a payload to 16 parity bits (XOR of its four
// 16-bit columns).
func frameFold16(v uint64) uint64 {
	v ^= v >> 32
	v ^= v >> 16
	return v & 0xffff
}

// frameCheck returns the expected check field for a payload: the magic ^
// parity fold, truncated to the headroom when fewer than 16 bits remain.
// When more than 16 bits of headroom exist the surplus high bits are
// simply required to be zero (the field is zero-extended), which the
// equality in Unframe enforces for free.
func (p *Params) frameCheck(enc uint64) uint64 {
	return (frameFold16(enc) ^ frameMagic) & p.frameCheckMask
}

// Frame packs an encoded statement into a full 64-bit block: the payload
// in the low bits, the check field in the headroom above it. The caller
// encrypts the framed block; Frame(Encode(s)) is the plaintext layout of
// every embedded piece.
func (p *Params) Frame(enc uint64) uint64 {
	return enc | p.frameCheck(enc)<<p.frameShift
}

// Unframe inverts Frame with validation: ok is false when the payload is
// outside the enumeration capacity or the check field does not match.
// During recognition this runs on every decrypted window before Decode
// and is the codec-level garbage filter; everything it touches is a
// memoized field, so the whole check is a handful of ALU ops.
func (p *Params) Unframe(w uint64) (enc uint64, ok bool) {
	enc = w & p.framePayload
	if enc >= p.frameCap || w>>p.frameShift != p.frameCheck(enc) {
		return 0, false
	}
	return enc, true
}

// FrameConsts is the flattened form of the framing check, published for
// vectorized Unframe implementations (the scan kernel's batched decode
// pass evaluates the check four windows at a time in AVX2). A window w
// passes iff w&Payload < Capacity and
// w>>Shift == (frameFold16(w&Payload) ^ Magic) & CheckMask — exactly
// Params.Unframe.
type FrameConsts struct {
	Shift                        uint64
	Payload, CheckMask, Capacity uint64
	Magic                        uint64
}

// FrameConstants returns the memoized framing constants; see FrameConsts.
func (p *Params) FrameConstants() FrameConsts {
	return FrameConsts{
		Shift:     uint64(p.frameShift),
		Payload:   p.framePayload,
		CheckMask: p.frameCheckMask,
		Capacity:  p.frameCap,
		Magic:     frameMagic,
	}
}
