//! Property-based round trips for the sysplex session envelope: every
//! [`SxRequest`] / [`SxResponse`] variant and every XCF message kind
//! ([`XcfItem`] messages and all three [`GroupEvent`]s, every
//! [`XcfError`]), with fuzzed payloads and the truncated-frame error
//! path.

use proptest::prelude::*;
use std::collections::BTreeSet;
use sysplex_core::connection::{ClassSnapshot, CommandClass};
use sysplex_core::stats::HistogramSnapshot;
use sysplex_core::types::SystemId;
use sysplex_core::wire::{SmfRecord, SmfStructureRow, WireRequest, WireResponse};
use sysplex_services::transport::{SxRequest, SxResponse};
use sysplex_services::xcf::{GroupEvent, MemberInfo, XcfError, XcfItem};

fn ascii(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b % 94 + 33) as char).collect()
}

fn system(sel: u8) -> SystemId {
    SystemId::new(sel % 32)
}

/// A fuzz-parameterized SMF interval record: sparse histogram buckets,
/// a couple of class rows and one structure row.
fn smf_record(name: &str, h: u32, n: u64, sel: u8) -> SmfRecord {
    let mut observed = HistogramSnapshot::default();
    observed.buckets[(sel % 64) as usize] = n | 1;
    observed.buckets[(sel.wrapping_add(7) % 64) as usize] = u64::from(h) | 1;
    observed.samples = observed.buckets.iter().sum();
    observed.total_ns = n.wrapping_mul(3);
    observed.max_ns = n;
    let row = ClassSnapshot {
        issued: observed.samples,
        sync: observed.samples / 2,
        async_converted: observed.samples - observed.samples / 2,
        faulted: u64::from(sel % 3),
        latency: observed,
    };
    SmfRecord {
        system: sel % 32,
        member: name.to_string(),
        seq: h,
        interval_us: n,
        final_interval: sel.is_multiple_of(2),
        classes: vec![(CommandClass::LockRequest, row.clone()), (CommandClass::CacheWrite, row)],
        structures: vec![SmfStructureRow {
            name: format!("{name}-S"),
            requests: n,
            contentions: n / 4,
            force_interests: u64::from(h),
            faulted: u64::from(sel),
        }],
    }
}

/// Every XCF item kind: a message plus all three group events.
fn item_samples(name: &str, data: &[u8], sel: u8) -> Vec<XcfItem> {
    vec![
        XcfItem::Message { from: name.to_string(), payload: data.to_vec() },
        XcfItem::Event(GroupEvent::MemberJoined { member: name.to_string(), system: system(sel) }),
        XcfItem::Event(GroupEvent::MemberLeft { member: name.to_string() }),
        XcfItem::Event(GroupEvent::MemberFailed { member: name.to_string(), system: system(sel) }),
    ]
}

fn request_samples(name: &str, data: &[u8], h: u32, n: u64, sel: u8) -> Vec<SxRequest> {
    vec![
        SxRequest::Hello { system: system(sel), name: name.to_string(), mips_bits: n, resume: None },
        SxRequest::Hello {
            system: system(sel),
            name: name.to_string(),
            mips_bits: n,
            resume: Some(n.wrapping_add(1)),
        },
        SxRequest::Cf(WireRequest::LockRequest {
            handle: h,
            entry: n,
            mode: sysplex_core::lock::LockMode::Exclusive,
        }),
        SxRequest::XcfJoin { group: name.to_string(), member: name.to_string() },
        SxRequest::XcfLeave { handle: h },
        SxRequest::XcfSend { handle: h, to: name.to_string(), payload: data.to_vec() },
        SxRequest::XcfBroadcast { handle: h, payload: data.to_vec() },
        SxRequest::XcfPoll { handle: h },
        SxRequest::XcfPeers { handle: h },
        SxRequest::Pulse,
        SxRequest::Goodbye,
        SxRequest::SmfShip(smf_record(name, h, n, sel)),
        SxRequest::SmfPull { system: system(sel) },
    ]
}

fn response_samples(name: &str, data: &[u8], h: u32, n: u64, sel: u8) -> Vec<SxResponse> {
    let mut out = vec![
        SxResponse::Ok,
        SxResponse::Cf(WireResponse::U64(n)),
        SxResponse::Joined { handle: h },
        SxResponse::Item(None),
        SxResponse::Peers(vec![
            MemberInfo { name: name.to_string(), system: system(sel) },
            MemberInfo { name: format!("{name}2"), system: system(sel.wrapping_add(1)) },
        ]),
        SxResponse::Count(n),
        SxResponse::XcfFail(XcfError::DuplicateMember(name.to_string())),
        SxResponse::XcfFail(XcfError::NoSuchMember(name.to_string())),
        SxResponse::XcfFail(XcfError::StaleHandle),
        SxResponse::Denied(name.to_string()),
        SxResponse::Admitted { token: n },
        SxResponse::SmfRecords(Vec::new()),
        SxResponse::SmfRecords(vec![
            smf_record(name, h, n, sel),
            smf_record(name, h.wrapping_add(1), n.wrapping_add(9), sel.wrapping_add(1)),
        ]),
    ];
    out.extend(item_samples(name, data, sel).into_iter().map(|it| SxResponse::Item(Some(it))));
    out.push(SxResponse::Fenced(name.to_string()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_envelope_request_round_trips(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let name = ascii(&name_bytes);
        for req in request_samples(&name, &data, h, n, sel) {
            prop_assert_eq!(SxRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn every_envelope_response_round_trips(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let name = ascii(&name_bytes);
        for resp in response_samples(&name, &data, h, n, sel) {
            prop_assert_eq!(SxResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_envelopes_error_never_panic(
        h in any::<u32>(),
        n in any::<u64>(),
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for req in request_samples("MEM", &data, h, n, sel) {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                prop_assert!(SxRequest::decode(&bytes[..cut]).is_err());
            }
        }
        for resp in response_samples("MEM", &data, h, n, sel) {
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                prop_assert!(SxResponse::decode(&bytes[..cut]).is_err());
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const GOLD_H: u32 = 0x0102_0304;
const GOLD_N: u64 = 0x1112_1314_1516_1718;
const GOLD_SEL: u8 = 0xFD;

/// `smf_record("GOLD1", GOLD_H, GOLD_N, GOLD_SEL).encode()`: the bytes the last hand-written
/// `SmfRecord` codec wrote (version 1), less the retry count and the three trace words version 2
/// dropped, under version byte 2.
const GOLDEN_SMF: &str = concat!(
    "021d05000000474f4c44310403020118171615141312110002001e1a1816141312110f0d0c0b8a0989080f0d0c0b8a09",
    "89080100000000000000020405030201000000003d19171615141312111e1a1816141312114845423f3c393633181716",
    "1514131211051e1a1816141312110f0d0c0b8a0989080f0d0c0b8a098908010000000000000002040503020100000000",
    "3d19171615141312111e1a1816141312114845423f3c39363318171615141312110100000007000000474f4c44312d53",
    "1817161514131211c6854505c58444040403020100000000fd00000000000000",
);

/// The second record of the `SmfRecords` sample (`h + 1`, `n + 9`, `sel + 1`), same provenance.
const GOLDEN_SMF_NEXT: &str = concat!(
    "021e05000000474f4c4431050302012117161514131211010200261a181614131211130d0c0b8a098908130d0c0b8a09",
    "89080200000000000000020505030201000000003e2117161514131211261a1816141312116345423f3c393633211716",
    "151413121105261a181614131211130d0c0b8a098908130d0c0b8a098908020000000000000002050503020100000000",
    "3e2117161514131211261a1816141312116345423f3c39363321171615141312110100000007000000474f4c44312d53",
    "2117161514131211c8854505c58444040503020100000000fe00000000000000",
);

/// Encodings of `request_samples("GOLD1", b"golden-bytes!", GOLD_H, GOLD_N,
/// GOLD_SEL)`, captured at the last hand-written envelope codec (PR 17).
/// `{smf}` stands for [`GOLDEN_SMF`]. A later row is appended with the
/// bytes it had when it was added.
const GOLDEN_REQUESTS: [&str; 13] = [
    "001d05000000474f4c4431181716151413121100",
    "001d05000000474f4c44311817161514131211011917161514131211",
    "010404030201181716151413121101",
    "0205000000474f4c443105000000474f4c4431",
    "0304030201",
    "040403020105000000474f4c44310d000000676f6c64656e2d627974657321",
    "05040302010d000000676f6c64656e2d627974657321",
    "0604030201",
    "0704030201",
    "08",
    "09",
    "0a{smf}",
    "0b1d",
];

/// Encodings of `response_samples` for the same inputs, same provenance
/// (`{next}` is [`GOLDEN_SMF_NEXT`]).
const GOLDEN_RESPONSES: [&str; 18] = [
    "00",
    "01031817161514131211",
    "0204030201",
    "0300",
    "040200000005000000474f4c44311d06000000474f4c4431321e",
    "051817161514131211",
    "060005000000474f4c4431",
    "060105000000474f4c4431",
    "0602",
    "0705000000474f4c4431",
    "081817161514131211",
    "0900000000",
    "0902000000{smf}{next}",
    "03010005000000474f4c44310d000000676f6c64656e2d627974657321",
    "0301010005000000474f4c44311d",
    "0301010105000000474f4c4431",
    "0301010205000000474f4c44311d",
    // Fenced (tag 10), added with the envelope tables.
    "0a05000000474f4c4431",
];

/// The envelope codec is generated from the `SxRequest`/`SxResponse`
/// tables; these bytes are not. A table edit that moves a tag, reorders a
/// field or changes a width fails here, and so does a row added without a
/// sample: the leading tag bytes of the samples must be exactly `0..COUNT`.
#[test]
fn every_envelope_tag_has_a_sample_and_golden_bytes() {
    let data = b"golden-bytes!";
    let golden = |rows: &[&str]| -> Vec<String> {
        rows.iter().map(|g| g.replace("{smf}", GOLDEN_SMF).replace("{next}", GOLDEN_SMF_NEXT)).collect()
    };
    let requests: Vec<Vec<u8>> =
        request_samples("GOLD1", data, GOLD_H, GOLD_N, GOLD_SEL).iter().map(SxRequest::encode).collect();
    let responses: Vec<Vec<u8>> =
        response_samples("GOLD1", data, GOLD_H, GOLD_N, GOLD_SEL).iter().map(SxResponse::encode).collect();
    assert_eq!(requests.iter().map(|b| hex(b)).collect::<Vec<_>>(), golden(&GOLDEN_REQUESTS));
    assert_eq!(responses.iter().map(|b| hex(b)).collect::<Vec<_>>(), golden(&GOLDEN_RESPONSES));
    assert_eq!(hex(&smf_record("GOLD1", GOLD_H, GOLD_N, GOLD_SEL).encode()), GOLDEN_SMF);

    let tags = |encoded: &[Vec<u8>]| encoded.iter().map(|b| b[0] as usize).collect::<BTreeSet<_>>();
    assert_eq!(tags(&requests), (0..SxRequest::COUNT).collect(), "one sample per request tag");
    assert_eq!(tags(&responses), (0..SxResponse::COUNT).collect(), "one sample per response tag");
    assert_eq!(sysplex_core::wire::SMF_RECORD_VERSION, 2);
}
