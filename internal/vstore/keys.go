package vstore

import (
	"encoding/binary"

	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// Local key-value layout. Every node's share of the distributed store lives
// in one ordered kvstore; record kinds are distinguished by a one-letter
// prefix. Tuple records embed the tuple-hash so that a page's tuples are
// adjacent on disk and can be retrieved "in a single pass through the hash
// ID range for that page" (§V-B, distributed scan). A tuple version's key
// names its relation too: publishes to different relations may share an
// epoch (each node claims epochs from its own view of the gossip), and
// two relations' tuples with equal key encodings must not overwrite each
// other's versions.
//
//	c/<relation>                                          catalog
//	r/<relation>\x00<epoch:8>                             relation coordinator
//	p/<relation>\x00<epoch:8><seq:4>                      index page
//	t/<hash:20><len:uvarint><relation><keyenc>\x00<epoch:8> tuple version

func epochBytes(e tuple.Epoch) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(e))
	return b[:]
}

// CatalogKVKey is the local store key for a relation's catalog.
func CatalogKVKey(relation string) []byte {
	return append([]byte("c/"), relation...)
}

// CatalogPlacement is the ring key where the catalog for relation lives.
func CatalogPlacement(relation string) keyspace.Key {
	return keyspace.HashStrings("catalog", relation)
}

// CoordKVKey is the local store key for the coordinator of (relation, epoch).
func CoordKVKey(relation string, e tuple.Epoch) []byte {
	k := append([]byte("r/"), relation...)
	k = append(k, 0)
	return append(k, epochBytes(e)...)
}

// CoordPlacement hashes ⟨relation, epoch⟩ to the relation coordinator's ring
// position (Algorithm 1 line 1).
func CoordPlacement(relation string, e tuple.Epoch) keyspace.Key {
	data := append([]byte("coord/"+relation+"/"), epochBytes(e)...)
	return keyspace.Hash(data)
}

// PageKVKey is the local store key for an index page.
func PageKVKey(id PageID) []byte {
	k := append([]byte("p/"), id.Relation...)
	k = append(k, 0)
	k = append(k, epochBytes(id.Epoch)...)
	var seq [4]byte
	binary.BigEndian.PutUint32(seq[:], id.Seq)
	return append(k, seq[:]...)
}

// TupleVersionKey is the local store key for a version of one of
// relation's tuples.
func TupleVersionKey(relation string, id tuple.ID) []byte {
	h := id.Hash()
	return AppendTupleVersionKey(make([]byte, 0, TupleVersionKeyLen(relation, id)), relation, h, id)
}

// TupleVersionKeyLen is the length of TupleVersionKey(relation, id).
func TupleVersionKeyLen(relation string, id tuple.ID) int {
	return 2 + keyspace.Size + uvarintLen(uint64(len(relation))) + len(relation) + len(id.Key) + 1 + 8
}

// AppendTupleVersionKey appends TupleVersionKey(relation, id) to dst,
// given the tuple's placement hash h (id.Hash(), often cached).
func AppendTupleVersionKey(dst []byte, relation string, h keyspace.Key, id tuple.ID) []byte {
	dst = append(dst, 't', '/')
	dst = append(dst, h[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(relation)))
	dst = append(dst, relation...)
	dst = append(dst, id.Key...)
	dst = append(dst, 0)
	return binary.BigEndian.AppendUint64(dst, uint64(id.Epoch))
}

// TupleKVKey is TupleVersionKey for a store that holds the tuples of a
// single relation, left unnamed.
func TupleKVKey(id tuple.ID) []byte { return TupleVersionKey("", id) }

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// TupleScanBounds returns the local-store key range [lo, hi) containing all
// tuple versions whose hash lies in the clockwise interval [min, max). For
// wrapped intervals (min > max) two scans are required; wrapped reports
// that, and the caller scans [lo, end-of-tuples) and [start-of-tuples, hi).
func TupleScanBounds(min, max keyspace.Key) (lo, hi []byte, wrapped bool) {
	lo = append([]byte("t/"), min[:]...)
	hi = append([]byte("t/"), max[:]...)
	if min == max {
		// Full ring: all tuples.
		return []byte("t/"), []byte("t0"), false // '0' = '/'+1
	}
	return lo, hi, max.Less(min)
}

// TupleKeyHash extracts the tuple hash embedded in a local tuple store key.
func TupleKeyHash(kvKey []byte) (keyspace.Key, bool) {
	var h keyspace.Key
	if len(kvKey) < 2+keyspace.Size || kvKey[0] != 't' || kvKey[1] != '/' {
		return h, false
	}
	copy(h[:], kvKey[2:])
	return h, true
}

// TupleIDFromKVKey reconstructs the relation and tuple ID from a local
// tuple store key.
func TupleIDFromKVKey(kvKey []byte) (string, tuple.ID, bool) {
	if len(kvKey) < 2+keyspace.Size+1+1+8 || kvKey[0] != 't' || kvKey[1] != '/' {
		return "", tuple.ID{}, false
	}
	rest := kvKey[2+keyspace.Size:]
	rlen, n := binary.Uvarint(rest)
	if n <= 0 || rlen > uint64(len(rest)-n) {
		return "", tuple.ID{}, false
	}
	relation := string(rest[n : n+int(rlen)])
	rest = rest[n+int(rlen):]
	// key encoding, then 0x00 separator, then 8-byte epoch. The key encoding
	// itself never ends ambiguously because we know the epoch is the final
	// 8 bytes and the separator precedes it.
	if len(rest) < 9 {
		return "", tuple.ID{}, false
	}
	keyEnc := rest[:len(rest)-9]
	if rest[len(rest)-9] != 0 {
		return "", tuple.ID{}, false
	}
	e := binary.BigEndian.Uint64(rest[len(rest)-8:])
	return relation, tuple.ID{Key: string(keyEnc), Epoch: tuple.Epoch(e)}, true
}
