//! Hostile `Execute` responses (ROADMAP 4b, wire): every truncation and
//! every single-byte mutation of a 3-slot response either fails to
//! decode or decodes to exactly what an independent reading of the same
//! bytes yields — never a panic, never a slot that is not in the bytes.

use bytes::Bytes;
use deeplake_remote::proto::{self, STATUS_OK};
use deeplake_storage::StorageError;
use deeplake_tql::wire::{WireReader, WireResult};

type Slots = Vec<Result<Bytes, StorageError>>;

/// The reference: the `Execute` response layout spelled out field by
/// field (`None`: not an OK response of `expected` slots).
fn reference_decode(payload: &[u8], expected: usize) -> WireResult<Option<(Slots, u64)>> {
    let mut r = WireReader::new(payload);
    if r.u8()? != STATUS_OK {
        return Ok(None);
    }
    let count = r.u32()? as usize;
    if count != expected {
        return Ok(None);
    }
    let mut slots = Vec::new();
    for _ in 0..count {
        match r.u8()? {
            0 => {
                let len = r.u64()?;
                let len = usize::try_from(len).map_err(|_| r.take(usize::MAX).unwrap_err())?;
                slots.push(Ok(Bytes::copy_from_slice(r.take(len)?)));
            }
            1 => slots.push(Err(proto::take_storage_err(&mut r)?)),
            _ => return Ok(None),
        }
    }
    let fetches = r.u64()?;
    r.finish()?;
    Ok(Some((slots, fetches)))
}

/// Decode `payload` both ways and compare; whether it decoded.
fn check(payload: &[u8], what: &str) -> bool {
    let reference = reference_decode(payload, 3);
    match proto::expect_execute(payload, 3) {
        Err(_) => {
            assert!(
                !matches!(reference, Ok(Some(_))),
                "{what}: refused what the reference reads"
            );
            false
        }
        Ok((slots, fetches)) => {
            let (want, want_fetches) = reference
                .expect("the reference reads it too")
                .expect("as an OK response");
            assert_eq!(slots, want, "{what}");
            assert_eq!(fetches, want_fetches, "{what}");
            true
        }
    }
}

#[test]
fn every_truncation_and_byte_flip_of_an_execute_response() {
    let slots: Slots = vec![
        Ok(Bytes::from((0..200u8).collect::<Vec<u8>>())),
        Err(StorageError::NotFound("versions/x/images/chunks/7".into())),
        Ok(Bytes::from_static(b"second blob")),
    ];
    let whole = proto::resp_execute(2, &slots);
    assert!(check(&whole, "untouched"));

    for cut in 0..whole.len() {
        assert!(!check(&whole[..cut], "truncated"), "cut at {cut}");
    }
    let mut decoded = 0;
    for at in 0..whole.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut mutated = whole.clone();
            mutated[at] ^= flip;
            decoded += check(&mutated, &format!("byte {at} ^ {flip:#x}")) as usize;
        }
    }
    // flips inside blob and message bytes still decode: the comparison
    // above ran, it was not vacuous
    assert!(decoded > 200, "{decoded} mutations decoded");
}

/// A response of `Ok` slots is sized once: the buffer never has to grow
/// (growing a `Vec` at least doubles it, so a capacity under twice the
/// first slot says the 40 KB push was never re-copied).
#[test]
fn ok_slots_are_written_into_a_buffer_sized_for_them() {
    let first = 40 << 10;
    let slots: Slots = vec![
        Ok(Bytes::from(vec![7u8; first])),
        Ok(Bytes::from(vec![9u8; 4 << 10])),
    ];
    let out = proto::resp_execute(1, &slots);
    assert!(out.capacity() >= out.len());
    assert!(
        out.capacity() < 2 * first,
        "{} bytes in a buffer of {}: it grew",
        out.len(),
        out.capacity()
    );
}
