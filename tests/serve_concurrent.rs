//! Concurrent read-while-ingest on the snapshot/delta corpus service.
//!
//! The serving contract, exercised with real thread interleavings on the
//! TPC-H-derived fixture population:
//!
//! 1. **Epoch consistency** — a reader's pinned snapshot answers the same
//!    query with the same matches *and the same counted TED evaluations*
//!    no matter how many merges land meanwhile; refreshed snapshots only
//!    move forward in epochs.
//! 2. **Merge ≡ sequential ingest** — after any interleaving of batched
//!    submits and multi-threaded epoch merges, the final corpus is
//!    byte-identical (indexed binary codec) to ingesting the same batches
//!    sequentially into the seed corpus.

use std::sync::Arc;

use uplan::corpus::{CorpusService, QueryRequest, QueryResponse};
use uplan_bench::corpus_fixture;

fn knn_request(probe: &uplan::core::UnifiedPlan) -> QueryRequest {
    QueryRequest::knn(5).with_probe(probe.clone())
}

fn assert_epoch_consistent(a: &QueryResponse, b: &QueryResponse) {
    assert_eq!(a, b, "one snapshot, one query, two different answers");
    assert_eq!(a.cost, b.cost, "counted evals drifted within an epoch");
}

#[test]
fn readers_stay_epoch_consistent_while_ingest_merges() {
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 30;

    let seed = corpus_fixture::derived_corpus(400, 0x5e2f_e001);
    let batches: Vec<Vec<_>> = corpus_fixture::derived_stream(900, 0xfeed_0001)
        .chunks(180)
        .map(<[_]>::to_vec)
        .collect();
    let probes = corpus_fixture::derived_stream(READERS * 2, 0x9e9e);

    let service = Arc::new(CorpusService::new(seed.clone()));
    let writer = {
        let service = Arc::clone(&service);
        let batches = batches.clone();
        std::thread::spawn(move || {
            for (round, batch) in batches.into_iter().enumerate() {
                service.submit(batch).expect("queue sized for the test");
                // Vary merge parallelism so readers race against every
                // ingest_parallel configuration.
                service.merge(1 + round % 4);
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let service = Arc::clone(&service);
            let request = knn_request(&probes[r]);
            let refresh_request = knn_request(&probes[READERS + r]);
            std::thread::spawn(move || {
                let mut reader = service.reader();
                let mut last_epoch = 0u64;
                for _ in 0..QUERIES_PER_READER {
                    // A pinned snapshot is immutable: repeating the query
                    // gives identical matches and identical counted evals,
                    // merges or not.
                    let pinned = Arc::clone(reader.pinned());
                    let first = pinned.execute(&request).expect("knn");
                    let again = pinned.execute(&request).expect("knn");
                    assert_epoch_consistent(&first, &again);
                    assert_eq!(first.epoch, Some(pinned.epoch()));

                    // Refreshing never moves backwards.
                    let current = reader.current();
                    let epoch = current.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    current.execute(&refresh_request).expect("knn");
                }
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for reader in readers {
        reader.join().expect("reader panicked");
    }

    // Drain anything the ticker-less test left queued, then compare
    // byte-for-byte with sequential ingest of the same batches.
    service.merge(2);
    let snapshot = service.snapshot();
    assert_eq!(snapshot.epoch(), service.epoch());

    let mut sequential = seed;
    for batch in &batches {
        sequential.ingest_parallel(batch, 1);
    }
    assert_eq!(sequential.len(), snapshot.corpus().len());
    assert_eq!(
        uplan::corpus::encode_segment(&sequential).unwrap(),
        uplan::corpus::encode_segment(snapshot.corpus()).unwrap(),
        "merged corpus diverged from sequential ingest"
    );
}

#[test]
fn a_reader_pinned_before_merges_still_answers_from_its_epoch() {
    let seed = corpus_fixture::derived_corpus(300, 0xface_0002);
    let service = Arc::new(CorpusService::new(seed));
    let mut reader = service.reader();
    let probe = corpus_fixture::derived_stream(1, 0x0ddba11)[0].clone();
    let request = knn_request(&probe);

    let pinned = Arc::clone(reader.pinned());
    let before = pinned.execute(&request).expect("knn");

    for batch in corpus_fixture::derived_stream(400, 0xfeed_0002).chunks(100) {
        service.submit(batch.to_vec()).unwrap();
        service.merge(3);
    }
    assert!(service.epoch() > 0);

    // The pre-merge snapshot is untouched by four epochs of growth.
    let after = pinned.execute(&request).expect("knn");
    assert_epoch_consistent(&before, &after);
    assert_eq!(pinned.epoch(), 0);

    // A refresh observes the latest epoch and (generally) more plans.
    let current = reader.current();
    assert_eq!(current.epoch(), service.epoch());
    assert!(current.corpus().len() >= pinned.corpus().len());
}
