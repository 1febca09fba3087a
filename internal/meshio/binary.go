package meshio

// Binary mesh wire format — the frame the distributed serving tier ships
// between replicas, routers and clients (internal/dist). The format is a
// single length-prefixed frame so it can be written straight onto a socket
// or carried as an HTTP body, and strict enough that a decoder facing
// untrusted bytes either returns the exact mesh that was encoded or an
// error — never a panic, and never an allocation of more than 2× the input:
// a version 2 frame's vertices take at most 1.5× their bytes (a grid vertex
// expands to 12 bytes from 8) and its indices at most 2× (16-bit indices
// widen to 32), and a version 1 frame's 36 bytes a triangle decode to 48.
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
// triangle, vertices A,B,C × components X,Y,Z as float32 bits — the bytes
// of the triangle soup a mesh expands to (geom.Mesh.ExpandSoup), so
// encode(decode(f)) == f bit for bit, and on a little-endian host the codec
// moves the payload as memory (view.go). A version 1 frame decodes to three
// vertices a triangle. The triangle payload is a soup in extraction order:
// AppendBinary concatenates the per-node meshes it is given in argument
// order, which for a cluster Result's PerNode meshes reproduces exactly the
// soup of the mesh repro.MergeMeshes builds. No replica sends version 1: it
// is the encoding a soup oracle compares decoded meshes in, and every reader
// still accepts it.
//
// Version 2 payload: a sequence of chunks, each one welded batch of the
// extraction (a geom.Mesh), in node order and then record order — chunk.go
// has the chunk layout. Its triangles are T in all, and expanding every
// chunk in order gives the version 1 payload of the same surface bit for
// bit, at ≈ 11.1 instead of 36 bytes per triangle. The serving tier caches,
// sends and verifies version 2 only (Seal), and the decoders turn the chunks
// into one mesh, vertices expanded and indices rebased: no soup is built on
// the way. Only the version 1 encoder gathers triangles.
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
// given meshes (in argument order) to dst and returns the extended slice:
// each mesh's triangles are gathered through its indices straight into dst's
// bytes. Encoding a cluster Result's per-node meshes in node order yields the
// same soup as merging them first.
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
		tris += m.Len()
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
		at := len(dst)
		dst = dst[:at+binTriSize*m.Len()]
		if out, ok := bytesAs[geom.Triangle](dst[at:]); ok {
			m.Gather(out)
		} else {
			putTris(dst[at:], m)
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

// putTris writes m's triangles into dst, exactly 36·m.Len() bytes, one
// component at a time: the portable encoder, taken when the host's triangle
// layout is not the wire layout or dst is not aligned for it (see view.go),
// and the oracle the bulk path is tested against. Every index of m must be
// below len(m.Verts).
func putTris(dst []byte, m *geom.Mesh) {
	for i, x := range m.Idx[:3*m.Len()] {
		putVec(dst[12*i:], m.Verts[x])
	}
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
	verts   int    // the vertices a version 2 frame's chunks hold in all
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
		tris, verts, err := walkChunks(h.payload)
		if err != nil {
			return h, err
		}
		if uint64(tris) != uint64(count) {
			return h, binErr("%d triangles declared, chunks hold %d", count, tris)
		}
		h.verts = verts
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
// mesh of its own: a version 1 payload is copied as three vertices a
// triangle, a version 2 frame's chunks fill one mesh, each chunk's vertices
// expanded after the last one's and its indices rebased past them.
// Truncated, oversized, or corrupt frames error with ErrBinaryFormat
// (checksum mismatches also with ErrChecksum); a decode allocates the mesh's
// two arrays and nothing else, at most 2× len(data).
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

// decode is the decoders' one body: check the frame, then fill its mesh.
func decode(data []byte, verified bool) (*geom.Mesh, float32, error) {
	h, err := verifiedHeader(data, verified)
	if err != nil {
		return nil, 0, err
	}
	if h.version == BinaryVersion {
		return soupMesh(h.payload), h.iso, nil
	}
	m, err := decodeChunks(h.payload, h.verts, h.tris)
	if err != nil {
		return nil, 0, err
	}
	return m, h.iso, nil
}

// soupMesh decodes a version 1 payload into a mesh of three vertices a
// triangle, the indices counting up.
func soupMesh(payload []byte) *geom.Mesh {
	m := geom.MakeMesh(len(payload)/binVertSize, len(payload)/binTriSize)
	getVerts(m.Verts, payload)
	for i := range m.Idx {
		m.Idx[i] = uint32(i)
	}
	return m
}

// getVerts fills verts from plain vertices' bytes b: one bulk copy where the
// host layout allows (the destination is always aligned, whatever b's
// offset), one component at a time otherwise.
func getVerts(verts []geom.Vec3, b []byte) {
	if dst, ok := asBytes(verts); ok {
		copy(dst, b)
		return
	}
	for i := range verts {
		verts[i] = getVec(b[binVertSize*i:])
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
