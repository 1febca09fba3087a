package meshio

// Binary mesh wire format — the frame the distributed serving tier ships
// between replicas, routers and clients (internal/dist). The format is a
// single length-prefixed frame so it can be written straight onto a socket
// or carried as an HTTP body, and strict enough that a decoder facing
// untrusted bytes either returns the exact mesh that was encoded or an
// error — never a panic, and never an allocation of more than 7.5× the input
// (a soup of at most 6×, a version 2 vertex scratch of at most 1.5×).
//
// Layout (all fields little-endian), shared by both versions:
//
//	offset size
//	0      4    frame length N: bytes that follow this prefix
//	4      4    magic "ISOM"
//	8      2    version: 1 (soup) or 2 (chunked indexed)
//	10     2    flags (bit 0 = CRC32-C trailer present; other bits reserved)
//	12     4    isovalue (float32 bits)
//	16     4    triangle count T
//	20     …    payload, by version (below)
//	        4   CRC32-C (Castagnoli, little-endian) over magic..payload,
//	            only when FlagChecksum is set. The distributed tier always
//	            sets it, so a frame corrupted on the wire is detected and
//	            retried on another replica instead of decoded.
//
// Version 1 payload, 36·T bytes (N = 16 + 36·T, +4 with the trailer): per
// triangle, vertices A,B,C × components X,Y,Z as float32 bits — the same
// bytes geom.Mesh holds in memory, so encode(decode(f)) == f and
// decode(encode(m)) == m bit for bit, and on a little-endian host the codec
// moves the payload as memory (view.go). The triangle payload is a soup in
// extraction order: AppendBinary concatenates the per-node meshes it is given
// in argument order, which for a cluster Result's PerNode meshes reproduces
// exactly the soup repro.MergeMeshes builds. No replica sends version 1: it
// is the encoding a soup oracle compares decoded meshes in, and every reader
// still accepts it.
//
// Version 2 payload: a sequence of chunks, each one welded batch of the
// extraction (geom.IndexedMesh), in node order and then record order —
// chunk.go has the chunk layout. Its triangles are T in all, and expanding
// every chunk in order gives the version 1 payload of the same surface bit
// for bit, at ≈ 11.1 instead of 36 bytes per triangle. The serving tier
// caches, sends and verifies version 2 only (Seal); soup is built only by
// the decoders, for a caller that asks for a geom.Mesh.
import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/geom"
)

// The wire format versions: BinaryVersion is what AppendBinary writes,
// ChunkedVersion what Seal writes. Every decoder accepts both.
const (
	BinaryVersion  = 1
	ChunkedVersion = 2
)

// FlagChecksum marks a frame carrying a 4-byte CRC32-C trailer computed over
// everything after the length prefix (magic through payload). Decoders that
// predate the flag reject such frames outright (reserved-flags check) rather
// than silently skipping verification.
const FlagChecksum uint16 = 1 << 0

// binMagic marks a mesh frame. Four printable bytes so a misdirected frame
// is recognizable in a hex dump.
var binMagic = [4]byte{'I', 'S', 'O', 'M'}

const (
	binPrefixSize = 4  // the length prefix itself
	binHeaderSize = 16 // magic..count, after the prefix
	binTriSize    = 36 // 9 float32 per triangle
	binCRCSize    = 4  // CRC32-C trailer, when FlagChecksum is set
	binMinFrame   = binPrefixSize + binHeaderSize

	// MaxBinaryFrameBytes is the largest frame ReadFrame accepts by
	// default: 1 GiB ≈ 29.8 M triangles, far above any mesh the pipeline
	// produces, far below anything that could exhaust memory twice over.
	MaxBinaryFrameBytes = 1 << 30
)

// ErrBinaryFormat wraps every malformed-frame error so callers can
// distinguish corrupt input from I/O failure with errors.Is.
var ErrBinaryFormat = errors.New("meshio: malformed binary mesh frame")

// ErrChecksum marks a structurally valid frame whose CRC32-C trailer does not
// match its bytes — corruption in transit. It wraps ErrBinaryFormat, so
// generic malformed-frame handling still applies; the router additionally
// counts these and retries the query on another replica.
var ErrChecksum = errors.New("meshio: frame checksum mismatch")

func binErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBinaryFormat, fmt.Sprintf(format, args...))
}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by encode and verify.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendBinary appends one encoded frame holding the concatenation of the
// given meshes (in argument order) to dst and returns the extended slice.
// Encoding a cluster Result's per-node meshes in node order yields the same
// soup as merging them first.
func AppendBinary(dst []byte, iso float32, meshes ...*geom.Mesh) []byte {
	return appendBinary(dst, iso, 0, meshes...)
}

// AppendBinaryChecksum is AppendBinary with FlagChecksum set: the frame
// carries a CRC32-C trailer so transit corruption is detectable. The tier
// serves version 2 frames (Seal); this is the soup encoding a client compares
// what it decoded against.
func AppendBinaryChecksum(dst []byte, iso float32, meshes ...*geom.Mesh) []byte {
	return appendBinary(dst, iso, FlagChecksum, meshes...)
}

func appendBinary(dst []byte, iso float32, flags uint16, meshes ...*geom.Mesh) []byte {
	tris := 0
	for _, m := range meshes {
		tris += len(m.Tris)
	}
	need := frameSize(flags, tris)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	start := len(dst)
	hdr := frameHeader(BinaryVersion, iso, flags, tris, binTriSize*tris)
	dst = append(dst, hdr[:]...)
	for _, m := range meshes {
		if b, ok := asBytes(m.Tris); ok {
			dst = append(dst, b...)
		} else {
			dst = putTris(dst, m.Tris)
		}
	}
	if flags&FlagChecksum != 0 {
		var crc [binCRCSize]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(dst[start+binPrefixSize:], crcTable))
		dst = append(dst, crc[:]...)
	}
	return dst
}

// frameSize is the whole length, prefix included, of a version 1 frame of
// tris triangles.
func frameSize(flags uint16, tris int) int { return framedSize(flags, binTriSize*tris) }

// framedSize is the whole length, prefix included, of a frame whose payload
// is payload bytes.
func framedSize(flags uint16, payload int) int {
	n := binMinFrame + payload
	if flags&FlagChecksum != 0 {
		n += binCRCSize
	}
	return n
}

// frameHeader builds the length prefix and fixed header of a frame carrying
// tris triangles in payload bytes.
func frameHeader(version uint16, iso float32, flags uint16, tris, payload int) (hdr [binMinFrame]byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(framedSize(flags, payload)-binPrefixSize))
	copy(hdr[4:8], binMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:], version)
	binary.LittleEndian.PutUint16(hdr[10:], flags)
	binary.LittleEndian.PutUint32(hdr[12:], math.Float32bits(iso))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(tris))
	return hdr
}

// putTris appends tris' payload one component at a time: the portable
// encoder, taken when the host's triangle layout is not the wire layout
// (see view.go), and the oracle the bulk path is tested against.
func putTris(dst []byte, tris []geom.Triangle) []byte {
	var rec [binTriSize]byte
	for _, t := range tris {
		putVec(rec[0:], t.A)
		putVec(rec[12:], t.B)
		putVec(rec[24:], t.C)
		dst = append(dst, rec[:]...)
	}
	return dst
}

func putVec(b []byte, v geom.Vec3) {
	binary.LittleEndian.PutUint32(b[0:], math.Float32bits(v.X))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(v.Y))
	binary.LittleEndian.PutUint32(b[8:], math.Float32bits(v.Z))
}

// DecodeBinaryHeader validates the structure of a frame and returns its
// isovalue and triangle count without touching the triangles — what a router
// or load driver needs to account for a mesh it only relays. The frame must
// be exactly the right length for its count (and trailer, when the checksum
// flag is set); a version 2 frame's chunk headers are walked and must add up
// to the count, which costs a few loads per chunk. The CRC itself is NOT
// checked here — use VerifyBinary or the full DecodeBinary for that.
func DecodeBinaryHeader(data []byte) (iso float32, tris int, err error) {
	h, err := decodeHeader(data)
	return h.iso, h.tris, err
}

// header is what decodeHeader has checked of a frame.
type header struct {
	version uint16
	flags   uint16
	iso     float32
	tris    int
	payload []byte // soup (version 1) or chunks (version 2); the trailer excluded
	// maxVerts is the most vertices a version 2 chunk holds: the size of
	// the decoders' vertex scratch.
	maxVerts int
}

func decodeHeader(data []byte) (h header, err error) {
	if len(data) < binMinFrame {
		return h, binErr("%d bytes, need at least %d", len(data), binMinFrame)
	}
	n := binary.LittleEndian.Uint32(data[0:])
	if uint64(n) != uint64(len(data)-binPrefixSize) {
		return h, binErr("length prefix %d, frame carries %d bytes", n, len(data)-binPrefixSize)
	}
	if [4]byte(data[4:8]) != binMagic {
		return h, binErr("bad magic %q", data[4:8])
	}
	h.version = binary.LittleEndian.Uint16(data[8:])
	if h.version != BinaryVersion && h.version != ChunkedVersion {
		return h, binErr("version %d, decoder speaks %d and %d", h.version, BinaryVersion, ChunkedVersion)
	}
	h.flags = binary.LittleEndian.Uint16(data[10:])
	if h.flags&^FlagChecksum != 0 {
		return h, binErr("reserved flags %#x set", h.flags)
	}
	end := len(data)
	if h.flags&FlagChecksum != 0 {
		if end-binMinFrame < binCRCSize {
			return h, binErr("checksum flag set on a frame too short for a trailer")
		}
		end -= binCRCSize
	}
	h.payload = data[binMinFrame:end]
	count := binary.LittleEndian.Uint32(data[16:])
	if h.version == BinaryVersion {
		if uint64(count)*binTriSize != uint64(len(h.payload)) {
			return h, binErr("%d triangles declared, payload holds %d bytes (want %d)",
				count, len(h.payload), uint64(count)*binTriSize)
		}
	} else {
		tris, maxVerts, err := walkChunks(h.payload)
		if err != nil {
			return h, err
		}
		if uint64(tris) != uint64(count) {
			return h, binErr("%d triangles declared, chunks hold %d", count, tris)
		}
		h.maxVerts = maxVerts
	}
	h.iso = math.Float32frombits(binary.LittleEndian.Uint32(data[12:]))
	h.tris = int(count)
	return h, nil
}

// VerifyBinary checks a frame's structure and, when the checksum flag is
// set, its CRC32-C trailer, without decoding the payload. A mismatched
// trailer yields an error satisfying both errors.Is(err, ErrChecksum) and
// errors.Is(err, ErrBinaryFormat). Frames without the flag verify by
// structure alone — the format predates the trailer, so absence is legal.
// A version 2 frame's indices are range-checked by the decoders, not here.
func VerifyBinary(data []byte) error {
	_, err := verifiedHeader(data, false)
	return err
}

// verifiedHeader checks a frame: structure always, the CRC unless the caller
// vouches for it.
func verifiedHeader(data []byte, verified bool) (header, error) {
	h, err := decodeHeader(data)
	if err == nil && !verified && h.flags&FlagChecksum != 0 {
		err = checkTrailer(data, crc32.Checksum(data[binPrefixSize:len(data)-binCRCSize], crcTable))
	}
	return h, err
}

// checkTrailer compares the CRC32-C computed over a frame's magic..payload
// with the trailer the frame carries. data has passed decodeHeader with the
// checksum flag set, so the trailer is there.
func checkTrailer(data []byte, got uint32) error {
	if want := binary.LittleEndian.Uint32(data[len(data)-binCRCSize:]); got != want {
		return fmt.Errorf("%w: %w: computed %#08x, frame carries %#08x", ErrBinaryFormat, ErrChecksum, got, want)
	}
	return nil
}

// DecodeBinary decodes exactly one frame of either version from data into a
// mesh of its own: a version 1 payload is copied, a version 2 frame's chunks
// are gathered into one soup of exactly T triangles. Truncated, oversized,
// or corrupt frames error with ErrBinaryFormat (checksum mismatches also with
// ErrChecksum); a decode allocates the triangle slice, at most 6× len(data)
// since no chunk holds a triangle in under 6 bytes, and for a version 2
// frame one vertex scratch the size of its largest chunk's vertices, at most
// 1.5× len(data) since a grid vertex expands to 12 bytes from 8.
func DecodeBinary(data []byte) (*geom.Mesh, float32, error) {
	return decode(data, false)
}

// DecodeVerified is DecodeBinary without the CRC pass, for a frame a
// verifying ReadFrame (or VerifyBinary) has already accepted, so a frame
// that crosses one trust boundary is checksummed exactly once. The
// structural checks that bound every access run regardless, and the mesh is
// the caller's own either way: frame is free once this returns.
func DecodeVerified(frame []byte) (*geom.Mesh, float32, error) {
	return decode(frame, true)
}

// ownTris decodes payload into a fresh triangle slice: one bulk copy where
// the host layout allows (the destination is always aligned, whatever the
// source's offset), per triangle otherwise.
func ownTris(payload []byte) []geom.Triangle {
	if len(payload) == 0 {
		return nil
	}
	tris := make([]geom.Triangle, len(payload)/binTriSize)
	if b, ok := asBytes(tris); ok {
		copy(b, payload)
	} else {
		getTris(tris, payload)
	}
	return tris
}

// decode is the decoders' one body: check the frame, then copy or gather
// its triangles.
func decode(data []byte, verified bool) (*geom.Mesh, float32, error) {
	h, err := verifiedHeader(data, verified)
	if err != nil {
		return nil, 0, err
	}
	if h.version == BinaryVersion {
		return &geom.Mesh{Tris: ownTris(h.payload)}, h.iso, nil
	}
	tris, err := gatherChunks(h.payload, h.tris, h.maxVerts)
	if err != nil {
		return nil, 0, err
	}
	return &geom.Mesh{Tris: tris}, h.iso, nil
}

// getTris fills tris from payload one component at a time: the portable
// decoder and test oracle, counterpart of putTris.
func getTris(tris []geom.Triangle, payload []byte) {
	for i := range tris {
		rec := payload[i*binTriSize:]
		tris[i] = geom.Triangle{
			A: getVec(rec[0:]),
			B: getVec(rec[12:]),
			C: getVec(rec[24:]),
		}
	}
}

func getVec(b []byte) geom.Vec3 {
	return geom.Vec3{
		X: math.Float32frombits(binary.LittleEndian.Uint32(b[0:])),
		Y: math.Float32frombits(binary.LittleEndian.Uint32(b[4:])),
		Z: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
	}
}

// readChunk is how much of a frame ReadFrame asks its reader for at a time
// when it is checksumming: small enough that the bytes a Read just wrote are
// still in L2 (a few MiB on any host this runs on) when crc32.Update walks
// them, large enough that the per-chunk overhead disappears against a
// frame of megabytes.
const readChunk = 256 << 10

// ReadFrame reads one whole frame (length prefix included) from r in a single
// pass. It refuses a frame whose declared size exceeds maxBytes (≤ 0 selects
// MaxBinaryFrameBytes) before the frame's buffer is asked for, so a hostile
// length prefix cannot balloon memory. alloc supplies that buffer — it is
// called at most once, with the frame's exact size, and must return at least
// that many bytes (nil = make a fresh one); the frame is read into its start,
// over whatever it held, and every byte of the returned frame came from r.
//
// With verify set the frame is also held to everything VerifyBinary checks,
// without a second walk: the CRC32-C is folded over each chunk as it comes
// off r, and once the last byte is in the structural checks run and the
// trailer is compared. The error is then the one VerifyBinary would have
// given the same bytes (ErrBinaryFormat, ErrChecksum). Without verify any
// well-prefixed bytes pass. A short or failed read wraps r's error
// (io.ErrUnexpectedEOF for a body that ends early) and is never
// ErrBinaryFormat. On any error the returned frame is nil and the buffer
// alloc returned is the caller's again.
func ReadFrame(r io.Reader, maxBytes int, verify bool, alloc func(size int) []byte) ([]byte, error) {
	return readFrame(r, maxBytes, verify, alloc, readChunk)
}

// readFrame is ReadFrame with the chunk size named, so the fuzzer can put
// chunk boundaries anywhere in a small frame.
func readFrame(r io.Reader, maxBytes int, verify bool, alloc func(size int) []byte, chunk int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = MaxBinaryFrameBytes
	}
	var prefix [binPrefixSize]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, fmt.Errorf("meshio: reading frame length: %w", err)
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n < binHeaderSize {
		return nil, binErr("length prefix %d below header size %d", n, binHeaderSize)
	}
	if uint64(n)+binPrefixSize > uint64(maxBytes) {
		return nil, binErr("frame of %d bytes exceeds limit %d", uint64(n)+binPrefixSize, maxBytes)
	}
	size := binPrefixSize + int(n)
	var frame []byte
	if alloc != nil {
		frame = alloc(size)[:size]
	} else {
		frame = make([]byte, size)
	}
	copy(frame, prefix[:])

	// The CRC covers magic..payload. Whether a trailer follows is a header
	// flag, known once the first chunk — never shorter than the header — is
	// in; until then sumEnd keeps the fold off, and without the flag it
	// stays off.
	sumEnd := 0
	if verify {
		chunk = max(chunk, binHeaderSize)
	} else {
		chunk = size // nothing to fold: one read
	}
	var sum uint32
	for off := binPrefixSize; off < size; {
		end := min(off+chunk, size)
		if _, err := io.ReadFull(r, frame[off:end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the prefix promised these bytes
			}
			return nil, fmt.Errorf("meshio: reading %d-byte frame body: %w", n, err)
		}
		if verify && off == binPrefixSize && binary.LittleEndian.Uint16(frame[10:])&FlagChecksum != 0 {
			sumEnd = size - binCRCSize
		}
		if off < sumEnd {
			sum = crc32.Update(sum, crcTable, frame[off:min(end, sumEnd)])
		}
		off = end
	}
	if verify {
		h, err := decodeHeader(frame)
		if err == nil && h.flags&FlagChecksum != 0 {
			err = checkTrailer(frame, sum)
		}
		if err != nil {
			return nil, err
		}
	}
	return frame, nil
}

// ReadBinaryFrame reads one whole frame from r into a buffer of its own under
// ReadFrame's size limit, unverified: the bytes are for a caller that relays
// them or checks them itself.
func ReadBinaryFrame(r io.Reader, maxBytes int) ([]byte, error) {
	return ReadFrame(r, maxBytes, false, nil)
}
