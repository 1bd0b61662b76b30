//! Property-based round trips for the sysplex wire codec.
//!
//! Every [`WireRequest`] and [`WireResponse`] variant (one of each per
//! generated case, all parameterized by fuzzed field values), every
//! [`CommandClass`] and [`CfError`], max-size payloads, and the
//! truncated-frame error paths: a strict prefix of a valid encoding must
//! decode to an error — never a panic, never a silent success.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use sysplex_core::cache::{BlockName, RegisterResult, WriteKind, WriteResult, WriteSetResult};
use sysplex_core::connection::{CfCommand, ClassSnapshot, CommandClass};
use sysplex_core::error::CfError;
use sysplex_core::list::{DequeueEnd, EntryId, EntryView, LockCondition, WritePosition};
use sysplex_core::lock::{DisconnectMode, LockMode, LockResponse, RetainedLock};
use sysplex_core::stats::{Histogram, HistogramSnapshot};
use sysplex_core::types::{ConnId, MAX_CONNECTORS};
use sysplex_core::wire::{FrameStream, SmfRecord, SmfStructureRow, WireRequest, WireResponse};

fn conn(raw: u8) -> ConnId {
    ConnId::from_raw(raw % MAX_CONNECTORS as u8)
}

fn opt_conn(raw: u8) -> Option<ConnId> {
    if raw & 0x80 != 0 {
        Some(conn(raw))
    } else {
        None
    }
}

fn ascii(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b % 94 + 33) as char).collect()
}

/// Labels the decoder can re-intern exactly (unknown labels collapse to
/// "remote" by design — tested separately in the wire unit tests).
fn label(sel: u8) -> &'static str {
    let extras = ["tcp-link", "wire-protocol", "remote"];
    let n = CommandClass::COUNT + extras.len();
    let i = sel as usize % n;
    if i < CommandClass::COUNT {
        CommandClass::ALL[i].name()
    } else {
        extras[i - CommandClass::COUNT]
    }
}

fn class(sel: u8) -> CommandClass {
    CommandClass::ALL[sel as usize % CommandClass::COUNT]
}

fn lock_mode(sel: u8) -> LockMode {
    if sel & 1 == 0 {
        LockMode::Shared
    } else {
        LockMode::Exclusive
    }
}

fn disconnect_mode(sel: u8) -> DisconnectMode {
    if sel & 2 == 0 {
        DisconnectMode::Normal
    } else {
        DisconnectMode::Abnormal
    }
}

fn write_kind(sel: u8) -> WriteKind {
    match sel % 3 {
        0 => WriteKind::CleanData,
        1 => WriteKind::ChangedData,
        _ => WriteKind::InvalidateOnly,
    }
}

fn position(sel: u8) -> WritePosition {
    match sel % 3 {
        0 => WritePosition::Head,
        1 => WritePosition::Tail,
        _ => WritePosition::Keyed,
    }
}

fn end(sel: u8) -> DequeueEnd {
    if sel & 4 == 0 {
        DequeueEnd::Head
    } else {
        DequeueEnd::Tail
    }
}

fn cond(sel: u8, n: u64) -> LockCondition {
    match sel % 3 {
        0 => LockCondition::None,
        1 => LockCondition::LockFree(n as usize),
        _ => LockCondition::HeldBySelf(n as usize),
    }
}

fn entry_view(n: u64, data: &[u8]) -> EntryView {
    EntryView { id: EntryId(n), key: n ^ 0xABCD, data: data.to_vec(), header: (n % 64) as usize, version: n }
}

/// One request of every variant, parameterized by the fuzz inputs
/// (`every_tag_has_a_sample_and_golden_bytes` fails if a row is missing).
fn request_samples(h: u32, n: u64, sel: u8, data: &[u8], name: &str) -> Vec<WireRequest> {
    let block = BlockName::from_bytes(&data[..data.len().min(16)]);
    vec![
        WireRequest::AttachLock { structure: name.to_string() },
        WireRequest::AttachLockSlot { structure: name.to_string(), slot: conn(sel) },
        WireRequest::AttachCache { structure: name.to_string(), vector_len: n },
        WireRequest::AttachList { structure: name.to_string(), vector_len: n },
        WireRequest::LockRequest { handle: h, entry: n, mode: lock_mode(sel) },
        WireRequest::LockForce { handle: h, entry: n, mode: lock_mode(sel) },
        WireRequest::LockForceNegotiated {
            handle: h,
            entry: n,
            mode: lock_mode(sel),
            negotiated: h ^ 0xFF,
            generation: (n & 0xFFFF) as u16,
        },
        WireRequest::LockRequestRecorded {
            handle: h,
            entry: n,
            mode: lock_mode(sel),
            resource: data.to_vec(),
            payload: data[..data.len() / 2].to_vec(),
        },
        WireRequest::LockRelease { handle: h, entry: n },
        WireRequest::LockReleaseSet {
            handle: h,
            entries: vec![n as usize, (n >> 8) as usize],
            records: vec![data.to_vec(), data[..data.len() / 2].to_vec()],
        },
        WireRequest::LockHolders { handle: h, entry: n },
        WireRequest::LockRecordSet {
            handle: h,
            records: vec![
                (data.to_vec(), lock_mode(sel), n.to_be_bytes().to_vec()),
                (data[..data.len() / 2].to_vec(), lock_mode(!sel), vec![]),
            ],
        },
        WireRequest::LockRetainedOf { handle: h, peer: conn(sel) },
        WireRequest::LockIsFailedPersistent { handle: h, peer: conn(sel) },
        WireRequest::LockRecoveryComplete { handle: h, peer: conn(sel) },
        WireRequest::LockDetach { handle: h, mode: disconnect_mode(sel) },
        WireRequest::LockDetachPeer { handle: h, peer: conn(sel), mode: disconnect_mode(sel) },
        WireRequest::CacheRead { handle: h, name: block, vector_index: h ^ 7 },
        WireRequest::CacheReadReplacing {
            handle: h,
            name: block,
            vector_index: h ^ 7,
            replaced: if sel & 8 == 0 { None } else { Some(BlockName::from_parts(h, n)) },
        },
        WireRequest::CacheWrite { handle: h, name: block, data: data.to_vec(), kind: write_kind(sel) },
        WireRequest::CacheWriteSet {
            handle: h,
            blocks: vec![(block, data.to_vec()), (BlockName::from_parts(h, n), vec![])],
            kind: write_kind(sel),
        },
        WireRequest::CacheCastoutCandidates { handle: h, max: n },
        WireRequest::CacheCastoutRead { handle: h, name: block },
        WireRequest::CacheCastoutComplete { handle: h, name: block, version: n },
        WireRequest::CacheIsValid { handle: h, vector_index: h },
        WireRequest::CacheDetach { handle: h },
        WireRequest::ListEnqueue {
            handle: h,
            header: n,
            key: n,
            data: data.to_vec(),
            position: position(sel),
            cond: cond(sel, n),
        },
        WireRequest::ListUpdate {
            handle: h,
            id: EntryId(n),
            key: n,
            data: data.to_vec(),
            expected_version: if sel & 8 == 0 { None } else { Some(n) },
            cond: cond(sel, n),
        },
        WireRequest::ListReadEntry { handle: h, id: EntryId(n) },
        WireRequest::ListDelete { handle: h, id: EntryId(n), cond: cond(sel, n) },
        WireRequest::ListMoveTo {
            handle: h,
            id: EntryId(n),
            to_header: n,
            position: position(sel),
            cond: cond(sel, n),
        },
        WireRequest::ListTransfer {
            handle: h,
            id: EntryId(n),
            from_header: n,
            to_header: n ^ 1,
            position: position(sel),
            cond: cond(sel, n),
        },
        WireRequest::ListClaimFirst {
            handle: h,
            from: n,
            to: n ^ 1,
            end: end(sel),
            position: position(sel),
            cond: cond(sel, n),
        },
        WireRequest::ListTake { handle: h, header: n, end: end(sel), cond: cond(sel, n) },
        WireRequest::ListScan { handle: h, header: n },
        WireRequest::ListHeaderLen { handle: h, header: n },
        WireRequest::ListLockAcquire { handle: h, entry: n },
        WireRequest::ListLockRelease { handle: h, entry: n },
        WireRequest::ListLockHolder { handle: h, entry: n },
        WireRequest::ListMonitor { handle: h, header: n, vector_index: h },
        WireRequest::ListDeregisterMonitor { handle: h, header: n },
        WireRequest::ListIsSignaled { handle: h, vector_index: h },
        WireRequest::ListDetach { handle: h },
        WireRequest::Probe(if sel & 16 == 0 {
            CfCommand::new(class(sel), n as usize & 0xFFFF)
        } else {
            CfCommand::new(class(sel), n as usize & 0xFFFF).bulk()
        }),
    ]
}

/// One error of every variant, with decoder-internable labels.
fn error_samples(sel: u8, n: u64, name: &str) -> Vec<CfError> {
    vec![
        CfError::NoSuchStructure(name.to_string()),
        CfError::StructureExists(name.to_string()),
        CfError::StructureFull,
        CfError::FacilityFull,
        CfError::NoConnectorSlots,
        CfError::BadConnector,
        CfError::NoSuchEntry,
        CfError::VersionMismatch { expected: n, found: n ^ 3 },
        CfError::LockHeld { holder: conn(sel) },
        CfError::NotLockHolder,
        CfError::BadParameter(label(sel)),
        CfError::WrongModel,
        CfError::LinkTimeout(label(sel)),
        CfError::InterfaceControlCheck(label(sel.wrapping_add(1))),
    ]
}

/// One response of every variant, parameterized by the fuzz inputs.
fn response_samples(h: u32, n: u64, sel: u8, data: &[u8], name: &str) -> Vec<WireResponse> {
    let block = BlockName::from_bytes(&data[..data.len().min(16)]);
    let mut out = vec![
        WireResponse::Unit,
        WireResponse::Attached { handle: h, conn: conn(sel), geometry: n },
        WireResponse::Bool(sel & 1 == 0),
        WireResponse::U64(n),
        WireResponse::Lock(LockResponse::Granted),
        WireResponse::Lock(LockResponse::Contention {
            holders: h,
            exclusive: opt_conn(sel),
            generation: (n & 0xFFFF) as u16,
        }),
        WireResponse::Holders { mask: h, exclusive: opt_conn(sel) },
        WireResponse::Retained(vec![RetainedLock {
            resource: data.to_vec(),
            mode: lock_mode(sel),
            payload: data.to_vec(),
        }]),
        WireResponse::Register(RegisterResult {
            data: if sel & 32 == 0 { None } else { Some(Arc::new(data.to_vec())) },
            version: n,
            changed: sel & 64 != 0,
        }),
        WireResponse::Write(WriteResult { invalidated: (n % 33) as usize, version: n }),
        WireResponse::Blocks(vec![block, block]),
        WireResponse::Data { data: data.to_vec(), version: n },
        WireResponse::Entry(EntryId(n)),
        WireResponse::OptEntry(None),
        WireResponse::OptEntry(Some(entry_view(n, data))),
        WireResponse::Entries(vec![entry_view(n, data), entry_view(n ^ 5, data)]),
        WireResponse::OptConn(opt_conn(sel)),
        WireResponse::WriteSet(WriteSetResult {
            written: vec![WriteResult { invalidated: (n % 33) as usize, version: n }],
            error: if sel & 16 == 0 { None } else { Some(CfError::StructureFull) },
        }),
    ];
    out.extend(error_samples(sel, n, name).into_iter().map(WireResponse::Error));
    out
}

/// A canonical histogram snapshot (what `Histogram::snapshot` yields) from
/// fuzzed latency samples.
fn histogram(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &ns in samples {
        h.record_ns(ns);
    }
    h.snapshot()
}

/// An SMF record exercising every field, parameterized by the fuzz inputs.
fn smf_record_sample(h: u32, n: u64, sel: u8, samples: &[u64], name: &str) -> SmfRecord {
    let classes = (0..(sel as usize % 4))
        .map(|i| {
            let issued = samples.len() as u64;
            (
                class(sel.wrapping_add(i as u8 * 37)),
                ClassSnapshot {
                    issued,
                    sync: issued / 2,
                    async_converted: issued - issued / 2,
                    faulted: issued.min(n % 3),
                    latency: histogram(samples),
                },
            )
        })
        .collect();
    SmfRecord {
        system: sel,
        member: name.to_string(),
        seq: h,
        interval_us: n,
        final_interval: sel & 1 != 0,
        classes,
        structures: vec![SmfStructureRow {
            name: name.to_string(),
            requests: n,
            contentions: n % 7,
            force_interests: n % 5,
            faulted: n % 3,
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_variant_round_trips(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let name = ascii(&name_bytes);
        for req in request_samples(h, n, sel, &data, &name) {
            let bytes = req.encode();
            prop_assert_eq!(WireRequest::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn every_response_variant_round_trips(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let name = ascii(&name_bytes);
        for resp in response_samples(h, n, sel, &data, &name) {
            let bytes = resp.encode();
            prop_assert_eq!(WireResponse::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_requests_error_never_panic(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for req in request_samples(h, n, sel, &data, "STRUCT") {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                prop_assert!(
                    WireRequest::decode(&bytes[..cut]).is_err(),
                    "strict prefix of {req:?} decoded successfully at {cut}/{}", bytes.len()
                );
            }
        }
    }

    #[test]
    fn truncated_responses_error_never_panic(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for resp in response_samples(h, n, sel, &data, "STRUCT") {
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                prop_assert!(
                    WireResponse::decode(&bytes[..cut]).is_err(),
                    "strict prefix of {resp:?} decoded successfully at {cut}/{}", bytes.len()
                );
            }
        }
    }

    #[test]
    fn frames_round_trip_and_truncated_frames_error(
        body in proptest::collection::vec(any::<u8>(), 0..512),
        seq in any::<u32>(),
    ) {
        let mut framed = FrameStream::new(Vec::new());
        framed.send(seq, |w| w.put_raw(&body)).unwrap();
        let framed = framed.into_inner();
        let mut link = FrameStream::new(framed.as_slice());
        let frame = link.recv().unwrap();
        prop_assert_eq!((frame.seq, frame.body()), (seq, body.as_slice()));
        // Every strict prefix of the frame is an I/O error, not a panic
        // and not a short read silently returned as data.
        for cut in 0..framed.len() {
            prop_assert!(FrameStream::new(&framed[..cut]).recv().is_err());
        }
    }

    #[test]
    fn smf_records_round_trip(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        samples in proptest::collection::vec(0u64..10_000_000_000, 0..32),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let name = ascii(&name_bytes);
        let rec = smf_record_sample(h, n, sel, &samples, &name);
        prop_assert_eq!(SmfRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn truncated_smf_records_error_never_panic(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        samples in proptest::collection::vec(0u64..10_000_000_000, 0..8),
    ) {
        let rec = smf_record_sample(h, n, sel, &samples, "SYS01");
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                SmfRecord::decode(&bytes[..cut]).is_err(),
                "strict prefix of an SMF record decoded successfully at {cut}/{}", bytes.len()
            );
        }
    }
}

/// Max-size payloads: a full 4 KiB page through the cache-write path and
/// the lock record path, plus a `CfCommand` claiming the largest payload
/// a subchannel can express.
#[test]
fn max_size_payloads_round_trip() {
    let page = vec![0xA5u8; 4096];
    let reqs = [
        WireRequest::CacheWrite {
            handle: 7,
            name: BlockName::from_parts(9, 1234),
            data: page.clone(),
            kind: WriteKind::ChangedData,
        },
        WireRequest::LockRecordSet {
            handle: 7,
            records: vec![(page.clone(), LockMode::Exclusive, page.clone())],
        },
        WireRequest::Probe(CfCommand::new(CommandClass::CacheWrite, usize::MAX).bulk()),
    ];
    for req in reqs {
        assert_eq!(WireRequest::decode(&req.encode()).unwrap(), req);
    }
    let resp = WireResponse::Data { data: page, version: u64::MAX };
    assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Encodings of `request_samples(0x0102_0304, 0x1112_1314_1516_1718, 0xFD,
/// b"golden-bytes!", "GOLD1")`, captured at the last hand-written codec
/// (PR 16). A later row is appended with the bytes it
/// had when it was added. At `WIRE_VERSION` 3 four rows were retired and
/// the four newest took their tags: those goldens changed in the tag byte
/// only.
const GOLDEN_REQUESTS: [&str; WireRequest::COUNT] = [
    "0005000000474f4c4431",
    "0105000000474f4c44311d",
    "0205000000474f4c44311817161514131211",
    "0305000000474f4c44311817161514131211",
    "0404030201181716151413121101",
    "0504030201181716151413121101",
    // LockForceNegotiated (tag 42), added with the command table.
    "2a04030201181716151413121101fb03020118170000",
    // LockRequestRecorded (tag 43), added with the release set (PR 25).
    "2b040302011817161514131211010d000000676f6c64656e2d62797465732106000000676f6c64656e",
    "06040302011817161514131211",
    // LockReleaseSet (tag 8), same PR; appended as 44 before WIRE_VERSION 3.
    "08040302010200000018171615141312111716151413121100020000000d000000676f6c64656e2d62797465732106000000676f6c64656e",
    "07040302011817161514131211",
    // LockRecordSet (tag 9), added with the one-command commit; 47 before WIRE_VERSION 3.
    "0904030201020000000d000000676f6c64656e2d6279746573210108000000111213141516171806000000676f6c64656e0000000000",
    "0b040302011d",
    "0c040302011d",
    "0d040302011d",
    "0e0403020100",
    "0f040302011d00",
    "1004030201676f6c64656e2d62797465732100000003030201",
    // CacheReadReplacing (tag 10), added with the one-command buffer steal; 45 before WIRE_VERSION 3.
    "0a04030201676f6c64656e2d627974657321000000030302010101020304111213141516171800000000",
    "1104030201676f6c64656e2d6279746573210000000d000000676f6c64656e2d62797465732101",
    // CacheWriteSet (tag 18), same PR; 46 before WIRE_VERSION 3.
    "120403020102000000676f6c64656e2d6279746573210000000d000000676f6c64656e2d627974657321010203041112131415161718000000000000000001",
    "13040302011817161514131211",
    "1404030201676f6c64656e2d627974657321000000",
    "1504030201676f6c64656e2d6279746573210000001817161514131211",
    "160403020104030201",
    "1704030201",
    "1804030201181716151413121118171615141312110d000000676f6c64656e2d62797465732101011817161514131211",
    "1904030201181716151413121118171615141312110d000000676f6c64656e2d627974657321011817161514131211011817161514131211",
    "1a040302011817161514131211",
    "1b040302011817161514131211011817161514131211",
    "1c040302011817161514131211181716151413121101011817161514131211",
    "1d0403020118171615141312111817161514131211191716151413121101011817161514131211",
    "1e04030201181716151413121119171615141312110101011817161514131211",
    "1f04030201181716151413121101011817161514131211",
    "20040302011817161514131211",
    "21040302011817161514131211",
    "22040302011817161514131211",
    "23040302011817161514131211",
    "24040302011817161514131211",
    "2504030201181716151413121104030201",
    "26040302011817161514131211",
    "270403020104030201",
    "2804030201",
    "2901181700000000000001",
];

/// Encodings of `response_samples` for the same inputs, same provenance.
const GOLDEN_RESPONSES: [&str; 32] = [
    "00",
    "01040302011d1817161514131211",
    "0200",
    "031817161514131211",
    "04",
    "0504030201011d18170000",
    "0604030201011d",
    "07010000000d000000676f6c64656e2d627974657321010d000000676f6c64656e2d627974657321",
    "08010d000000676f6c64656e2d627974657321181716151413121101",
    "0914000000000000001817161514131211",
    "0a02000000676f6c64656e2d627974657321000000676f6c64656e2d627974657321000000",
    "0b0d000000676f6c64656e2d6279746573211817161514131211",
    "0c1817161514131211",
    "0d",
    "0e1817161514131211d5bc1615141312110d000000676f6c64656e2d62797465732118000000000000001817161514131211",
    "0f020000001817161514131211d5bc1615141312110d000000676f6c64656e2d627974657321180000000000000018171615141312111d17161514131211d0bc1615141312110d000000676f6c64656e2d6279746573211d000000000000001d17161514131211",
    "10011d",
    // WriteSet (tag 18), added with the one-command commit.
    "1201000000140000000000000018171615141312110102",
    "110005000000474f4c4431",
    "110105000000474f4c4431",
    "1102",
    "1103",
    "1104",
    "1105",
    "1106",
    "110718171615141312111b17161514131211",
    "11081d",
    "1109",
    "110a0d000000776972652d70726f746f636f6c",
    "110b",
    "110c0d000000776972652d70726f746f636f6c",
    "110d0600000072656d6f7465",
];

/// The codec is generated from the command table; these bytes are not. A
/// table edit that moves a tag, reorders a field or changes a width fails
/// here, and so does a row added without a sample: the leading tag bytes
/// of the samples must be exactly `0..COUNT`.
#[test]
fn every_tag_has_a_sample_and_golden_bytes() {
    let data = b"golden-bytes!";
    let requests: Vec<Vec<u8>> = request_samples(0x0102_0304, 0x1112_1314_1516_1718, 0xFD, data, "GOLD1")
        .iter()
        .map(WireRequest::encode)
        .collect();
    let responses: Vec<Vec<u8>> = response_samples(0x0102_0304, 0x1112_1314_1516_1718, 0xFD, data, "GOLD1")
        .iter()
        .map(WireResponse::encode)
        .collect();
    assert_eq!(requests.iter().map(|b| hex(b)).collect::<Vec<_>>(), GOLDEN_REQUESTS);
    assert_eq!(responses.iter().map(|b| hex(b)).collect::<Vec<_>>(), GOLDEN_RESPONSES);

    let tags = |encoded: &[Vec<u8>]| encoded.iter().map(|b| b[0] as usize).collect::<BTreeSet<_>>();
    assert_eq!(tags(&requests), (0..WireRequest::COUNT).collect(), "one sample per request tag");
    assert_eq!(tags(&responses), (0..WireResponse::COUNT).collect(), "one sample per response tag");
    assert_eq!(sysplex_core::wire::WIRE_VERSION, 3);

    // The frame around them: magic, version, body length, sequence number.
    let mut framed = FrameStream::new(Vec::new());
    framed.send(0x0A0B_0C0D, |w| w.put_raw(&requests[0])).unwrap();
    assert_eq!(hex(&framed.into_inner()), format!("53504c58030a0000000d0c0b0a{}", GOLDEN_REQUESTS[0]));
}
