//! Wire-codec benchmarks: the fidelity of the network-cost figures depends
//! on the codec, and the TCP transport pays these costs per frame.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::slice::{SliceId, SliceSynopsis};
use dema_wire::Message;

fn event_batch(n: u64) -> Message {
    Message::EventBatch {
        node: NodeId(1),
        window: WindowId(2),
        sorted: true,
        events: (0..n).map(|i| Event::new(i as i64 * 3, i, i)).collect(),
    }
}

fn synopsis_batch(n: u32) -> Message {
    let node = NodeId(1);
    let window = WindowId(2);
    Message::SynopsisBatch {
        node,
        window,
        synopses: (0..n)
            .map(|i| SliceSynopsis {
                id: SliceId {
                    node,
                    window,
                    index: i,
                },
                first: i as i64 * 100,
                last: i as i64 * 100 + 99,
                count: 10_000,
                total_slices: n,
            })
            .collect(),
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    for n in [1_000u64, 100_000] {
        let msg = event_batch(n);
        group.throughput(Throughput::Bytes(msg.encoded_len() as u64));
        group.bench_with_input(BenchmarkId::new("event_batch", n), &msg, |b, msg| {
            b.iter(|| {
                let mut buf = Vec::with_capacity(msg.encoded_len());
                msg.encode_into(&mut buf);
                black_box(buf.len())
            })
        });
    }
    let msg = synopsis_batch(100);
    group.throughput(Throughput::Bytes(msg.encoded_len() as u64));
    group.bench_function("synopsis_batch_100", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(msg.encoded_len());
            msg.encode_into(&mut buf);
            black_box(buf.len())
        })
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    for n in [1_000u64, 100_000] {
        let bytes = event_batch(n).to_bytes();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("event_batch", n), &bytes, |b, bytes| {
            b.iter(|| black_box(Message::decode(bytes).unwrap()))
        });
    }
    let bytes = synopsis_batch(100).to_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("synopsis_batch_100", |b| {
        b.iter(|| black_box(Message::decode(&bytes).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
