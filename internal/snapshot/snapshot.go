// Package snapshot provides the binary format primitives for engine
// checkpoints: a little-endian, fixed-width encoder, a bounds-checked decoder
// that reports malformed input as errors (never panics), and a versioned,
// length-prefixed, CRC-checked frame that wraps every serialized payload.
//
// The package is deliberately domain-free: it knows nothing about engines,
// jobs, or clusters. Each domain package (sim, cluster, metrics, core, ...)
// serializes its own state through an Enc/Dec pair, and the top-level writers
// (Session.Checkpoint, the sweep runner) wrap the result in a frame. Nested
// frames are legal and used: a session checkpoint is a frame whose payload
// embeds the engine's own frame.
//
// Determinism contract: encoding the same logical state always yields the
// same bytes. Nothing here consults maps in iteration order, wall clocks, or
// pointer values; callers must likewise serialize map-shaped state in sorted
// key order.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot frame. Four bytes, never versioned — version
// skew is expressed in the frame's version field so old readers can say
// "snapshot from a newer writer" instead of "not a snapshot".
const Magic = "HSNP"

// frameOverhead is the byte size of magic + version + length + CRC.
const frameOverhead = 4 + 4 + 8 + 4

// maxFrameSize bounds a declared payload length. It exists to fail fast on
// corrupt length fields; real snapshots are far smaller.
const maxFrameSize = 1 << 32

// Enc accumulates a payload. The zero value is ready to use. All integers are
// little-endian and fixed-width: snapshots trade a few bytes for a format
// with no data-dependent branching, which keeps encode/decode trivially
// deterministic.
type Enc struct {
	buf []byte
}

// Bytes returns the accumulated payload. The slice aliases the encoder's
// buffer; encode everything before framing it.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a fixed 32-bit value.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed 64-bit value.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a signed 64-bit value (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as 64 bits.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// U64s appends a length-prefixed slice of 64-bit values.
func (e *Enc) U64s(vs []uint64) { e.ZeroPaddedU64s(0, vs) }

// ZeroPaddedU64s appends the bytes U64s writes for lead zero values followed
// by vs, without materializing the zeros.
func (e *Enc) ZeroPaddedU64s(lead int, vs []uint64) {
	e.U32(uint32(lead + len(vs)))
	e.buf = append(e.buf, make([]byte, 8*lead)...)
	for _, v := range vs {
		e.U64(v)
	}
}

// I64s appends a length-prefixed slice of signed 64-bit values.
func (e *Enc) I64s(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Ints appends a length-prefixed slice of ints.
func (e *Enc) Ints(vs []int) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.Int(v)
	}
}

// Dec decodes a payload produced by Enc. It is sticky: the first malformed
// read records an error, every subsequent read returns zero values, and the
// caller checks Err (or Done) once at the end of a section. Dec never panics
// and never reads past the payload, no matter how corrupt the input is.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Done returns an error if decoding failed or if unread bytes remain — a
// trailing-garbage check for the end of a complete payload.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

// Fail records err (if no earlier error is pending) and returns it. Domain
// decoders use it to surface semantic validation failures through the same
// sticky-error channel as malformed bytes.
func (d *Dec) Fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// Failf is Fail with formatting.
func (d *Dec) Failf(format string, args ...any) error {
	return d.Fail(fmt.Errorf("snapshot: "+format, args...))
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.err = fmt.Errorf("snapshot: truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool, rejecting values other than 0 and 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("invalid bool byte %d", v)
		return false
	}
	return v == 1
}

// U32 reads a fixed 32-bit value.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit value.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as 64 bits.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a u32 element count and validates it against the bytes that
// remain, assuming each element occupies at least elemMin bytes. This rejects
// allocation-bomb counts in corrupt input before any slice is allocated.
func (d *Dec) Count(elemMin int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if int64(n)*int64(elemMin) > int64(d.Remaining()) {
		d.Failf("count %d exceeds remaining payload (%d bytes)", n, d.Remaining())
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice. The result is a copy.
func (d *Dec) Blob() []byte {
	n := d.Count(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// U64s reads a length-prefixed slice of 64-bit values.
func (d *Dec) U64s() []uint64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	return vs
}

// I64s reads a length-prefixed slice of signed 64-bit values.
func (d *Dec) I64s() []int64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}

// Ints reads a length-prefixed slice of ints.
func (d *Dec) Ints() []int {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// Frame wraps payload in the versioned on-disk format:
//
//	magic "HSNP" | u32 version | u64 payload length | payload | u32 CRC-32 (IEEE) of payload
func Frame(version uint32, payload []byte) []byte {
	out := make([]byte, 0, frameOverhead+len(payload))
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// Unframe validates a complete frame held in memory and returns its payload
// (aliasing data) and version. It rejects bad magic, truncation, trailing
// garbage, and CRC mismatches.
func Unframe(data []byte) (payload []byte, version uint32, err error) {
	if len(data) < frameOverhead {
		return nil, 0, fmt.Errorf("snapshot: frame truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != Magic {
		return nil, 0, fmt.Errorf("snapshot: bad magic %q", data[:4])
	}
	version = binary.LittleEndian.Uint32(data[4:8])
	n := binary.LittleEndian.Uint64(data[8:16])
	if n > maxFrameSize || int(n) != len(data)-frameOverhead {
		return nil, 0, fmt.Errorf("snapshot: frame length %d does not match %d payload bytes", n, len(data)-frameOverhead)
	}
	payload = data[16 : 16+int(n)]
	sum := binary.LittleEndian.Uint32(data[16+int(n):])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, fmt.Errorf("snapshot: CRC mismatch (stored %08x, computed %08x)", sum, got)
	}
	return payload, version, nil
}

// Write frames payload and writes it to w.
func Write(w io.Writer, version uint32, payload []byte) error {
	_, err := w.Write(Frame(version, payload))
	return err
}

// Read consumes a complete frame from r and returns its payload and version.
// A declared length larger than the data actually present yields a truncation
// error rather than a huge allocation.
func Read(r io.Reader) (payload []byte, version uint32, err error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("snapshot: reading frame header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, 0, fmt.Errorf("snapshot: bad magic %q", hdr[:4])
	}
	version = binary.LittleEndian.Uint32(hdr[4:8])
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxFrameSize {
		return nil, 0, fmt.Errorf("snapshot: implausible frame length %d", n)
	}
	// Copy through a growing buffer so a corrupt length field cannot force a
	// single huge allocation: growth stops at EOF.
	var buf bytes.Buffer
	copied, err := io.Copy(&buf, io.LimitReader(r, int64(n)+4))
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: reading frame payload: %w", err)
	}
	if uint64(copied) != n+4 {
		return nil, 0, fmt.Errorf("snapshot: frame truncated (want %d payload bytes, have %d)", n+4, copied)
	}
	body := buf.Bytes()
	payload = body[:n]
	sum := binary.LittleEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, fmt.Errorf("snapshot: CRC mismatch (stored %08x, computed %08x)", sum, got)
	}
	return payload, version, nil
}
