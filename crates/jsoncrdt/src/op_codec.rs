//! Binary encoding of operations.
//!
//! Replicas exchanging [`Operation`]s over a network (for example a
//! [`crate::JsonCrdt::delta_since`] suffix at an offline client's
//! rejoin) need a wire format. Same discipline as the ledger codec:
//! versioned, length-prefixed, total decoding — arbitrary bytes produce
//! `Ok` or a structured error, never a panic.

use std::error::Error;
use std::fmt;

use crate::clock::{OpId, ReplicaId};
use crate::op::{Cursor, CursorElement, ItemKey, Mutation, Operation};

const FORMAT_VERSION: u8 = 1;

/// Decoding error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOpError {
    message: &'static str,
    /// Offset at which decoding failed.
    pub offset: usize,
}

impl DecodeOpError {
    fn new(message: &'static str, offset: usize) -> Self {
        DecodeOpError { message, offset }
    }
}

impl fmt::Display for DecodeOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for DecodeOpError {}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, DecodeOpError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or(DecodeOpError::new("unexpected end of input", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, DecodeOpError> {
        let end = self.pos + 8;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(DecodeOpError::new("unexpected end of input", self.pos))?;
        self.pos = end;
        Ok(u64::from_be_bytes(slice.try_into().expect("8 bytes")))
    }

    fn len(&mut self, min_item: usize) -> Result<usize, DecodeOpError> {
        let at = self.pos;
        let n = self.u64()? as usize;
        if min_item > 0 && n > (self.data.len() - self.pos) / min_item + 1 {
            return Err(DecodeOpError::new("implausible collection length", at));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeOpError> {
        let at = self.pos;
        let n = self.u64()? as usize;
        let end = self.pos + n;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(DecodeOpError::new("string exceeds input", at))?;
        self.pos = end;
        String::from_utf8(slice.to_vec()).map_err(|_| DecodeOpError::new("invalid UTF-8", at))
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_op_id(buf: &mut Vec<u8>, id: OpId) {
    put_u64(buf, id.counter);
    put_u64(buf, id.replica.0);
}

fn read_op_id(r: &mut Reader<'_>) -> Result<OpId, DecodeOpError> {
    Ok(OpId::new(r.u64()?, ReplicaId(r.u64()?)))
}

/// Encodes one operation.
pub fn encode_op(op: &Operation) -> Vec<u8> {
    let mut buf = vec![FORMAT_VERSION];
    put_op_id(&mut buf, op.id);
    put_u64(&mut buf, op.deps.len() as u64);
    for &dep in op.deps.iter() {
        put_op_id(&mut buf, dep);
    }
    put_u64(&mut buf, op.cursor.len() as u64);
    for element in op.cursor.elements() {
        match element {
            CursorElement::Key(key) => {
                buf.push(0);
                put_str(&mut buf, key);
            }
            CursorElement::ListItem(item) => {
                buf.push(1);
                put_u64(&mut buf, item.index);
                put_u64(&mut buf, item.hash);
            }
        }
    }
    match &op.mutation {
        Mutation::Assign(value) => {
            buf.push(0);
            put_str(&mut buf, value);
        }
        Mutation::MakeMap => buf.push(1),
        Mutation::MakeList => buf.push(2),
        Mutation::Delete => buf.push(3),
    }
    buf
}

/// Decodes one operation.
///
/// # Errors
///
/// Returns a [`DecodeOpError`] for truncated, malformed or
/// wrong-version input.
pub fn decode_op(data: &[u8]) -> Result<Operation, DecodeOpError> {
    let mut r = Reader { data, pos: 0 };
    if r.u8()? != FORMAT_VERSION {
        return Err(DecodeOpError::new("unsupported format version", 0));
    }
    let id = read_op_id(&mut r)?;
    let dep_count = r.len(16)?;
    let mut deps = Vec::with_capacity(dep_count);
    for _ in 0..dep_count {
        deps.push(read_op_id(&mut r)?);
    }
    let element_count = r.len(9)?;
    let mut elements = Vec::with_capacity(element_count);
    for _ in 0..element_count {
        let at = r.pos;
        match r.u8()? {
            0 => elements.push(CursorElement::Key(r.str()?.into())),
            1 => elements.push(CursorElement::ListItem(ItemKey {
                index: r.u64()?,
                hash: r.u64()?,
            })),
            _ => return Err(DecodeOpError::new("unknown cursor element tag", at)),
        }
    }
    let at = r.pos;
    let mutation = match r.u8()? {
        0 => Mutation::Assign(r.str()?),
        1 => Mutation::MakeMap,
        2 => Mutation::MakeList,
        3 => Mutation::Delete,
        _ => return Err(DecodeOpError::new("unknown mutation tag", at)),
    };
    if r.pos != data.len() {
        return Err(DecodeOpError::new("trailing bytes after operation", r.pos));
    }
    Ok(Operation::new(
        id,
        deps,
        Cursor::from_elements(elements),
        mutation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sample_ops() -> Vec<Operation> {
        let mut cursor_deep = Cursor::new();
        cursor_deep.push_key("a");
        cursor_deep.push_item(ItemKey::derive(3, &Value::string("x")));
        cursor_deep.push_key("b");
        vec![
            Operation::new(
                OpId::new(1, ReplicaId(1)),
                vec![],
                {
                    let mut c = Cursor::new();
                    c.push_key("k");
                    c
                },
                Mutation::Assign("value with ünicode".into()),
            ),
            Operation::new(
                OpId::new(7, ReplicaId(3)),
                vec![OpId::new(1, ReplicaId(1)), OpId::new(2, ReplicaId(2))],
                cursor_deep,
                Mutation::MakeList,
            ),
            Operation::new(
                OpId::new(9, ReplicaId(2)),
                vec![OpId::new(7, ReplicaId(3))],
                Cursor::new(),
                Mutation::Delete,
            ),
            Operation::new(
                OpId::new(10, ReplicaId(2)),
                vec![],
                {
                    let mut c = Cursor::new();
                    c.push_key("m");
                    c
                },
                Mutation::MakeMap,
            ),
        ]
    }

    #[test]
    fn roundtrip() {
        for op in sample_ops() {
            let decoded = decode_op(&encode_op(&op)).unwrap();
            assert_eq!(decoded, op);
        }
    }

    #[test]
    fn truncation_errors() {
        let bytes = encode_op(&sample_ops()[1]);
        for cut in 0..bytes.len() {
            assert!(decode_op(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_op(&sample_ops()[0]);
        bytes.push(0);
        assert!(decode_op(&bytes).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        let mut bytes = encode_op(&sample_ops()[0]);
        bytes[0] = 9; // version
        assert!(decode_op(&bytes).is_err());
    }

    #[test]
    fn editors_can_sync_over_the_wire() {
        use crate::doc::JsonCrdt;
        let mut alice = JsonCrdt::with_history(ReplicaId(1));
        let mut bob = JsonCrdt::new(ReplicaId(2));
        let edit: Value = r#"{"title":"Spec","body":"…"}"#.parse().unwrap();
        alice.merge_value(&edit).unwrap();
        // Alice ships what Bob's frontier has not seen, as wire frames.
        let wire: Vec<Vec<u8>> = alice
            .delta_since(bob.frontier())
            .unwrap()
            .iter()
            .map(encode_op)
            .collect();
        assert!(!wire.is_empty());
        for frame in wire {
            bob.apply(decode_op(&frame).unwrap()).unwrap();
        }
        assert_eq!(alice.to_value(), bob.to_value());
        assert_eq!(bob.to_value(), edit);
    }
}
