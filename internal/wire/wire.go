// Package wire implements hetwire-bin/v1, the length-prefixed, versioned
// binary encoding for simulation results, batch scenario streams, and
// cluster uploads.
//
// Every frame starts with a fixed 28-byte header (magic, version, type,
// flags, index, payload length, payload CRC-32, and an 8-byte summary word)
// so containers can be counted, split, and routed without decoding any
// payload: the batch streamer copies stored frames verbatim, the cache
// serves hits as a single buffer copy, and progress displays read IPC out
// of the summary word. Result bytes move between processes only as frames;
// JSON is a view rendered at the public HTTP edge for clients that ask for
// it, and a result round-tripped through either view hashes identically
// (see ResultHash).
//
// The encoding is canonical: there is exactly one accepted byte string for
// any value. Decoders validate everything — CRC, exact lengths, bool bytes,
// map ordering, flag bits, header/payload agreement — and reject the rest,
// which makes decode∘encode the identity and encode∘decode the identity on
// accepted frames (the fuzz targets pin both directions). Canonical bytes
// are what make content-addressed upload idempotency work: a straggler and
// a re-dispatch of the same scenario upload byte-identical frames, so the
// coordinator detects duplicates by comparing bytes.
package wire

import (
	"bytes"
	"encoding/binary"
	"expvar"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// Format names the encoding version; it is bumped on any incompatible
	// layout change.
	Format = "hetwire-bin/v1"
	// ContentType is the HTTP media type used to negotiate the binary
	// encoding (Accept on reads, Content-Type on writes).
	ContentType = "application/x-hetwire-bin"
	// Version is the header version byte for Format.
	Version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 28
	// MaxPayload bounds a single frame's payload; anything larger is a
	// protocol violation, not a workload (the upload body cap is 16 MiB).
	MaxPayload = 64 << 20
)

// Frame types. The type byte decides the payload layout and which flag bits
// and header fields are meaningful; decoders reject unknown types.
const (
	// TypeRunResult carries one encoded hetwire.RunResponse. The header
	// summary word holds the response IPC bits, so sweep progress and batch
	// assembly read IPC without touching the payload.
	TypeRunResult byte = 0x01
	// TypeBatchHeader opens a batch stream: payload is the expanded
	// scenario total.
	TypeBatchHeader byte = 0x02
	// TypeScenario is one batch scenario outcome at its expansion index:
	// the request, plus either an embedded TypeRunResult frame (copied
	// verbatim from the result cache) or an error.
	TypeScenario byte = 0x03
	// TypeBatchTrailer closes a batch stream with the completed/failed/
	// cache-hit counts.
	TypeBatchTrailer byte = 0x04
	// 0x05 and 0x08 are retired (they framed trace and flight JSONL lines);
	// decoders reject them as unknown types and they must never be reused.
	// TypeUploadHeader opens a cluster upload stream: node, lease, and job
	// identity plus the node-side span timings.
	TypeUploadHeader byte = 0x06
	// TypeUploadResult is one scenario outcome inside a cluster upload.
	TypeUploadResult byte = 0x07
)

// Flag bits, meaningful per frame type; all other bits must be zero.
const (
	// FlagError (TypeScenario, TypeUploadResult): the Error string is set
	// and no result frame is embedded.
	FlagError uint16 = 1 << 0
	// FlagCached (TypeScenario): the result was served from a result cache.
	FlagCached uint16 = 1 << 1
	// FlagSkipped (TypeUploadResult): federated-cache skip marker; the
	// coordinator fills the slot from its own cache.
	FlagSkipped uint16 = 1 << 2
	// FlagIncomplete (TypeBatchTrailer): the stream ended before every
	// scenario resolved (job cancelled or deadline-exceeded mid-batch).
	FlagIncomplete uint16 = 1 << 0
)

var magic = [4]byte{'H', 'W', 'B', '1'}

// ResultDecodes counts full RunResponse payload decodes performed by this
// process. The serving path is designed so a cache hit is a header peek
// plus one buffer copy — the zero-decode invariant — and this counter is
// how tests (and /debug/vars) assert it: serve N cache hits over the binary
// endpoint and the counter must not move.
var ResultDecodes = expvar.NewInt("hetwire_wire_result_decodes")

// Header is the decoded fixed frame header.
//
// Layout (little-endian):
//
//	[0:4)   magic "HWB1"
//	[4]     version (1)
//	[5]     type
//	[6:8)   flags
//	[8:12)  index (scenario expansion index)
//	[12:16) payload length
//	[16:20) payload CRC-32 (IEEE)
//	[20:28) summary word (float64 bits; IPC for result-bearing frames)
type Header struct {
	Type    byte
	Flags   uint16
	Index   uint32
	Length  uint32
	CRC     uint32
	Summary uint64
}

// SummaryFloat returns the summary word as the float64 it encodes.
func (h Header) SummaryFloat() float64 { return math.Float64frombits(h.Summary) }

// ParseHeader decodes the frame header at the front of b. It validates
// magic, version, and the payload-length bound, but does not look at the
// payload (the caller may not have it yet).
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("wire: truncated header: %d bytes", len(b))
	}
	if !bytes.Equal(b[0:4], magic[:]) {
		return Header{}, fmt.Errorf("wire: bad magic %q", b[0:4])
	}
	if b[4] != Version {
		return Header{}, fmt.Errorf("wire: unsupported version %d (want %d)", b[4], Version)
	}
	h := Header{
		Type:    b[5],
		Flags:   binary.LittleEndian.Uint16(b[6:8]),
		Index:   binary.LittleEndian.Uint32(b[8:12]),
		Length:  binary.LittleEndian.Uint32(b[12:16]),
		CRC:     binary.LittleEndian.Uint32(b[16:20]),
		Summary: binary.LittleEndian.Uint64(b[20:28]),
	}
	if h.Length > MaxPayload {
		return Header{}, fmt.Errorf("wire: payload length %d exceeds limit %d", h.Length, MaxPayload)
	}
	return h, nil
}

// PeekHeader parses the header of the first frame in buf. It is the
// zero-decode fast path: ipcOf-style summary reads cost one header parse.
func PeekHeader(buf []byte) (Header, error) {
	return ParseHeader(buf)
}

// IsWire reports whether b starts with a hetwire-bin frame header. The
// magic is not valid JSON, so sniffing distinguishes the two encodings.
func IsWire(b []byte) bool {
	return len(b) >= 4 && bytes.Equal(b[0:4], magic[:])
}

// appendFrame appends one complete frame (header + payload) to dst.
func appendFrame(dst []byte, typ byte, flags uint16, index uint32, summary uint64, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("wire: payload %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	var hb [HeaderSize]byte
	copy(hb[0:4], magic[:])
	hb[4] = Version
	hb[5] = typ
	binary.LittleEndian.PutUint16(hb[6:8], flags)
	binary.LittleEndian.PutUint32(hb[8:12], index)
	binary.LittleEndian.PutUint32(hb[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hb[16:20], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(hb[20:28], summary)
	dst = append(dst, hb[:]...)
	return append(dst, payload...), nil
}

// checkFrame validates one complete frame slice — header, exact length, and
// payload CRC — and returns the header and the payload subslice (no copy).
func checkFrame(frame []byte) (Header, []byte, error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return Header{}, nil, err
	}
	if len(frame) != HeaderSize+int(h.Length) {
		return Header{}, nil, fmt.Errorf("wire: frame is %d bytes, header declares %d",
			len(frame), HeaderSize+int(h.Length))
	}
	payload := frame[HeaderSize:]
	if crc := crc32.ChecksumIEEE(payload); crc != h.CRC {
		return Header{}, nil, fmt.Errorf("wire: payload CRC mismatch (got %08x, header %08x)", crc, h.CRC)
	}
	return h, payload, nil
}

// Count walks buf's frame headers and returns how many frames it holds.
// It reads 28 bytes per frame and never touches payloads — the routing
// primitive: a relay can count, and Split can shard, at memcpy speed.
func Count(buf []byte) (int, error) {
	n := 0
	for off := 0; off < len(buf); {
		h, err := ParseHeader(buf[off:])
		if err != nil {
			return n, err
		}
		end := off + HeaderSize + int(h.Length)
		if end > len(buf) {
			return n, fmt.Errorf("wire: frame %d truncated: needs %d bytes, %d remain", n, end-off, len(buf)-off)
		}
		off = end
		n++
	}
	return n, nil
}

// Split shards buf into per-frame subslices (zero-copy: the slices alias
// buf). Like Count it validates only headers, not payload CRCs.
func Split(buf []byte) ([][]byte, error) {
	var frames [][]byte
	for off := 0; off < len(buf); {
		h, err := ParseHeader(buf[off:])
		if err != nil {
			return nil, err
		}
		end := off + HeaderSize + int(h.Length)
		if end > len(buf) {
			return nil, fmt.Errorf("wire: frame %d truncated: needs %d bytes, %d remain", len(frames), end-off, len(buf)-off)
		}
		frames = append(frames, buf[off:end:end])
		off = end
	}
	return frames, nil
}

// Walk iterates buf's frames with payload CRCs verified, calling fn with
// each header and complete frame slice. fn returning an error stops the walk.
func Walk(buf []byte, fn func(h Header, frame []byte) error) error {
	frames, err := Split(buf)
	if err != nil {
		return err
	}
	for _, fr := range frames {
		h, _, err := checkFrame(fr)
		if err != nil {
			return err
		}
		if err := fn(h, fr); err != nil {
			return err
		}
	}
	return nil
}

// Reader reads frames from a stream, validating each completely (header +
// CRC). Next returns io.EOF at a clean frame boundary and an error for
// anything torn or corrupt.
type Reader struct {
	r   io.Reader
	hdr [HeaderSize]byte
}

// NewReader wraps r as a frame reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads and validates the next frame, returning its header and the
// complete frame bytes (header + payload, freshly allocated).
func (rd *Reader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(rd.r, rd.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, nil, fmt.Errorf("wire: torn frame header at end of stream")
		}
		return Header{}, nil, err
	}
	h, err := ParseHeader(rd.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	frame := make([]byte, HeaderSize+int(h.Length))
	copy(frame, rd.hdr[:])
	if _, err := io.ReadFull(rd.r, frame[HeaderSize:]); err != nil {
		return Header{}, nil, fmt.Errorf("wire: torn frame payload: %w", err)
	}
	if crc := crc32.ChecksumIEEE(frame[HeaderSize:]); crc != h.CRC {
		return Header{}, nil, fmt.Errorf("wire: payload CRC mismatch (got %08x, header %08x)", crc, h.CRC)
	}
	return h, frame, nil
}
