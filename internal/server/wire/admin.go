package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/binenc"
)

// Admin frames (all tagged): the surface a router drives a live
// migration with, plus the on-demand checkpoint. The migration sequence
// mirrors the server API — freeze stops a shard deciding, extract moves
// its state out as an opaque persist-encoded packet, install adopts the
// packet on the destination — and every step answers either its reply
// frame or a tag-scoped error, so a refused admin call never kills the
// connection carrying it.
//
//	payload admin := msgShardFreeze       | uvarint tag | uvarint shard
//	              | msgShardExtract      | uvarint tag | uvarint shard
//	              | msgShardState        | uvarint tag | uvarint shard | packet bytes
//	              | msgShardInstall      | uvarint tag | uvarint shard | packet bytes
//	              | msgShardAck          | uvarint tag | uvarint shard
//	              | msgOwnersRequest     | uvarint tag
//	              | msgOwnersReply       | uvarint tag | uvarint n | n × bool
//	              | msgCheckpointRequest | uvarint tag
//	              | msgCheckpointReply   | uvarint tag | string path | uvarint bytes
//
// The packet bytes are the persist.ShardPacket encoding, carried
// verbatim: self-framing, CRC-guarded, and relayable without decoding.
// MaxFrame bounds a migratable shard's encoded size.
const (
	msgShardFreeze       byte = 21
	msgShardExtract      byte = 22
	msgShardState        byte = 23
	msgShardInstall      byte = 24
	msgShardAck          byte = 25
	msgOwnersRequest     byte = 26
	msgOwnersReply       byte = 27
	msgCheckpointRequest byte = 28
	msgCheckpointReply   byte = 29
)

// maxOwners bounds an owners reply's shard count: far above any sane
// deployment, low enough that a corrupt count cannot balloon memory.
const maxOwners = 1 << 16

// appendTagShard is the shared body of the fixed tag+shard frames.
func appendTagShard(b []byte, typ byte, tag uint64, shard int) []byte {
	return binary.AppendUvarint(appendTag(b, typ, tag), uint64(shard))
}

// readTagShard reads a tag+shard head, leaving the rest of the body.
func readTagShard(r *binenc.Reader, typ byte) (tag uint64, shard int) {
	tag = readTag(r, typ)
	u := r.Uvarint()
	if u > maxOwners {
		r.Fail("wire: shard index %d out of range", u)
	}
	return tag, int(u)
}

// decodeTagShard parses a frame that is exactly tag+shard.
func decodeTagShard(payload []byte, typ byte) (tag uint64, shard int, err error) {
	r := binenc.NewReader(payload)
	tag, shard = readTagShard(&r, typ)
	return tag, shard, r.End(msgNames[typ])
}

// AppendShardFreeze appends a freeze request: stop the shard deciding
// (it answers "shard not owned here" from now on) without extracting
// its state — the bootstrap move that keeps a spare backend's slots
// from deciding traffic they were never routed.
func AppendShardFreeze(b []byte, tag uint64, shard int) []byte {
	return appendTagShard(b, msgShardFreeze, tag, shard)
}

// DecodeShardFreeze parses a freeze request (msg byte included).
func DecodeShardFreeze(payload []byte) (tag uint64, shard int, err error) {
	return decodeTagShard(payload, msgShardFreeze)
}

// AppendShardExtract appends an extract request: freeze the shard and
// move its state out; the reply is a msgShardState frame carrying the
// packet.
func AppendShardExtract(b []byte, tag uint64, shard int) []byte {
	return appendTagShard(b, msgShardExtract, tag, shard)
}

// DecodeShardExtract parses an extract request (msg byte included).
func DecodeShardExtract(payload []byte) (tag uint64, shard int, err error) {
	return decodeTagShard(payload, msgShardExtract)
}

// AppendShardAck appends the success reply to a freeze or install.
func AppendShardAck(b []byte, tag uint64, shard int) []byte {
	return appendTagShard(b, msgShardAck, tag, shard)
}

// DecodeShardAck parses an ack (msg byte included).
func DecodeShardAck(payload []byte) (tag uint64, shard int, err error) {
	return decodeTagShard(payload, msgShardAck)
}

// appendShardPacketFrame is the shared body of the two packet-bearing
// frames (state reply and install request).
func appendShardPacketFrame(b []byte, typ byte, tag uint64, shard int, packet []byte) []byte {
	return append(appendTagShard(b, typ, tag, shard), packet...)
}

// decodeShardPacketFrame parses a packet-bearing frame. The packet is
// the payload's remainder, copied out so the caller owns it after the
// read buffer is reused; its own header and CRCs validate the contents.
func decodeShardPacketFrame(payload []byte, typ byte) (tag uint64, shard int, packet []byte, err error) {
	r := binenc.NewReader(payload)
	tag, shard = readTagShard(&r, typ)
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	if r.Len() == 0 {
		return 0, 0, nil, fmt.Errorf("wire: %s carries no packet", msgNames[typ])
	}
	return tag, shard, append([]byte(nil), r.Rest()...), nil
}

// AppendShardState appends the extract reply: the shard's state as an
// opaque persist-encoded packet.
func AppendShardState(b []byte, tag uint64, shard int, packet []byte) []byte {
	return appendShardPacketFrame(b, msgShardState, tag, shard, packet)
}

// DecodeShardState parses an extract reply (msg byte included). The
// returned packet is a fresh copy.
func DecodeShardState(payload []byte) (tag uint64, shard int, packet []byte, err error) {
	return decodeShardPacketFrame(payload, msgShardState)
}

// AppendShardInstall appends an install request: adopt the packet into
// the named (unused, frozen) slot. The reply is a msgShardAck.
func AppendShardInstall(b []byte, tag uint64, shard int, packet []byte) []byte {
	return appendShardPacketFrame(b, msgShardInstall, tag, shard, packet)
}

// DecodeShardInstall parses an install request (msg byte included). The
// returned packet is a fresh copy.
func DecodeShardInstall(payload []byte) (tag uint64, shard int, packet []byte, err error) {
	return decodeShardPacketFrame(payload, msgShardInstall)
}

// AppendOwnersRequest appends an ownership query: which of the engine's
// shard slots decide traffic here? A router bootstraps its routing map
// from the answers.
func AppendOwnersRequest(b []byte, tag uint64) []byte {
	return appendTag(b, msgOwnersRequest, tag)
}

// DecodeOwnersRequest parses an ownership query (msg byte included).
func DecodeOwnersRequest(payload []byte) (uint64, error) {
	return decodeTagOnly(payload, msgOwnersRequest)
}

// AppendOwnersReply appends the ownership answer: one bool per shard
// slot, true where this engine decides.
func AppendOwnersReply(b []byte, tag uint64, owned []bool) []byte {
	b = binary.AppendUvarint(appendTag(b, msgOwnersReply, tag), uint64(len(owned)))
	for _, o := range owned {
		b = appendBool(b, o)
	}
	return b
}

// DecodeOwnersReply parses an ownership answer (msg byte included).
func DecodeOwnersReply(payload []byte) (tag uint64, owned []bool, err error) {
	r := binenc.NewReader(payload)
	tag = readTag(&r, msgOwnersReply)
	n := r.Uvarint()
	if n > maxOwners {
		r.Fail("wire: owners reply of %d shards exceeds %d", n, maxOwners)
		n = 0
	}
	owned = make([]bool, n)
	for i := range owned {
		b := r.Byte()
		if b > 1 {
			r.Fail("wire: bad owners bool %d", b)
		}
		owned[i] = b != 0
	}
	return tag, owned, r.End(msgNames[msgOwnersReply])
}

// AppendCheckpointRequest appends an on-demand checkpoint request: the
// engine persists its economy state to its configured state path now.
// The reply is a msgCheckpointReply, or a tagged error from an engine
// with no state path (or a disk that refused the write).
func AppendCheckpointRequest(b []byte, tag uint64) []byte {
	return appendTag(b, msgCheckpointRequest, tag)
}

// DecodeCheckpointRequest parses a checkpoint request (msg byte
// included).
func DecodeCheckpointRequest(payload []byte) (uint64, error) {
	return decodeTagOnly(payload, msgCheckpointRequest)
}

// AppendCheckpointReply appends the checkpoint answer: where the
// snapshot landed and how many bytes it encoded to.
func AppendCheckpointReply(b []byte, tag uint64, path string, size int64) []byte {
	b = appendString(appendTag(b, msgCheckpointReply, tag), path)
	return binary.AppendUvarint(b, uint64(size))
}

// DecodeCheckpointReply parses a checkpoint answer (msg byte included).
func DecodeCheckpointReply(payload []byte) (tag uint64, path string, size int64, err error) {
	r := binenc.NewReader(payload)
	tag = readTag(&r, msgCheckpointReply)
	path = r.String()
	u := r.Uvarint()
	if u > math.MaxInt64 {
		r.Fail("wire: checkpoint size %d out of range", u)
	}
	return tag, path, int64(u), r.End(msgNames[msgCheckpointReply])
}
