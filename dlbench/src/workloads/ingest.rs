//! `ingest` — the write path (paper Fig. 6). Per round: a fresh dataset
//! on a fresh in-memory store, `ingest_batches` × 256 rows of image +
//! label + embedding through `extend_rows` + `flush`, one `commit`, drop.
//! Closed loop, one writer. Latency unit: one batch.
//!
//! `codec` encode, `format` chunk build and `core` do the work; `loader`,
//! `remote`, `hub` and `tql` do nothing. It is the counter-workload to
//! the read paths: a chunk-layout or codec change that speeds reads and
//! slows writes shows here.

use std::sync::Arc;

use deeplake_codec::synthimg::{max_error, Quality};
use deeplake_core::{Dataset, Row};
use deeplake_tensor::Htype;

use super::{create_dataset, write_rows, Counts, Inputs, Round, TensorSpec, Workload, WritePhase};
use crate::gen::Rng;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::store::SpanProvider;

/// Rows of the last round's dataset read back and compared.
const CHECKED_ROWS: u64 = 64;

fn tensors() -> [TensorSpec; 3] {
    [
        TensorSpec {
            name: "images",
            htype: Htype::Image,
            dtype: None,
            chunk_target_bytes: 256 << 10,
        },
        TensorSpec {
            name: "labels",
            htype: Htype::ClassLabel,
            dtype: None,
            chunk_target_bytes: 4 << 10,
        },
        TensorSpec {
            name: "emb",
            htype: Htype::Embedding,
            dtype: None,
            chunk_target_bytes: 64 << 10,
        },
    ]
}

pub struct Ingest {
    seed: u64,
    rows: Arc<Vec<Row>>,
    tracer: Tracer,
    /// The store the last round wrote.
    last: Option<Arc<SpanProvider>>,
    puts: u64,
}

impl Ingest {
    pub fn setup(inputs: &Inputs, tracer: &Tracer) -> Self {
        Ingest {
            seed: inputs.seed,
            rows: inputs.rows.clone(),
            tracer: tracer.clone(),
            last: None,
            puts: 0,
        }
    }

    /// Reopen the last round's dataset and compare the row count and a
    /// seeded sample of rows with what was written: labels and
    /// embeddings exactly, images within the lossy codec's error bound.
    fn check_last(&self) -> Result<(), String> {
        let store = self.last.as_ref().ok_or("no round ran")?;
        let ds = Dataset::open(store.dyn_provider()).map_err(|e| format!("reopen: {e}"))?;
        if ds.len() != self.rows.len() as u64 {
            return Err(format!(
                "{} rows stored, {} written",
                ds.len(),
                self.rows.len()
            ));
        }
        let tolerance = i16::from(max_error(Quality { bits: 4 }));
        let mut rng = Rng::stream(self.seed, 0xC4EC);
        for _ in 0..CHECKED_ROWS {
            let i = rng.below(ds.len());
            let want = &self.rows[i as usize];
            let got = ds.get_row(i).map_err(|e| format!("row {i}: {e}"))?;
            for name in ["labels", "emb"] {
                if got.get(name).map(|s| s.bytes()) != want.get(name).map(|s| s.bytes()) {
                    return Err(format!("row {i}: {name} differs"));
                }
            }
            let close = match (got.get("images"), want.get("images")) {
                (Some(g), Some(w)) => {
                    g.shape() == w.shape()
                        && g.bytes()
                            .iter()
                            .zip(w.bytes().iter())
                            .all(|(a, b)| (i16::from(*a) - i16::from(*b)).abs() <= tolerance)
                }
                _ => false,
            };
            if !close {
                return Err(format!("row {i}: image outside the codec's error bound"));
            }
        }
        Ok(())
    }
}

impl Workload for Ingest {
    fn round(&mut self, lat_ms: &mut Vec<f64>) -> Round {
        let store = SpanProvider::new(&self.tracer);
        let mut ds = create_dataset(&store, &tensors(), &self.tracer);
        let mut failed = write_rows(&mut ds, &self.rows, &self.tracer, |ms| lat_ms.push(ms));
        if ds.len() != self.rows.len() as u64 {
            failed = self.rows.len() as u64;
        }
        drop(ds);
        self.puts += store.stats().put_requests;
        self.last = Some(store);
        Round {
            items: self.rows.len() as u64,
            failed,
        }
    }

    fn counts(&self) -> Counts {
        Counts {
            storage_round_trips: self.puts,
            ..Counts::default()
        }
    }

    fn write_phase(&self) -> WritePhase {
        self.last
            .as_ref()
            .map_or_else(WritePhase::default, |s| WritePhase::of(s, &self.rows))
    }

    fn premises(&mut self) -> Vec<String> {
        self.check_last().err().into_iter().collect()
    }

    fn layer_metrics(&mut self, _client_mean_ms: f64, out: &mut Metrics) {
        let Some(store) = &self.last else { return };
        if let Ok(ds) = Dataset::open(store.dyn_provider()) {
            out.set(
                "core.get_rows_batch_ms_p50",
                crate::probes::get_rows_batch_ms(&ds, &["images", "labels", "emb"], 32),
            );
        }
    }
}
