//! Label-memory report: resident bytes of the paged canonical label
//! rows versus the packed query mirror (`batchhl_hcl::packed`), for one
//! copy and across every live copy.
//!
//! The dense layout costs `4·|R|` bytes per vertex regardless of how
//! many labels the vertex actually has; the packed CSR costs ~3 bytes
//! per *logical* entry (u16 landmark id + width-narrowed distance) plus
//! per-vertex overhead. This report prints both, the compression ratio,
//! and the narrowed highway width — the memory half of the packed-
//! storage evaluation (the latency half lives in the Criterion groups).
//!
//! A running index holds several copies of its labelling: the writer's
//! working buffer, the published generation, and generations readers
//! pin or the writer keeps for reuse. After one fully dynamic batch the
//! report also gives their bytes counted copy by copy ("All copies")
//! and with every shared page and mirror cell counted once ("Shared
//! once") — what the copies cost together.

use super::ExpContext;
use crate::bench_support::bench_batch;
use crate::datasets::dataset;
use crate::measure::Table;
use batchhl_core::index::Algorithm;
use batchhl_hcl::{active_kernel, LabelResidency, Labelling};

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

/// One copy counted in full: dense pages plus its sealed mirror.
fn full_copy_bytes(lab: &Labelling) -> usize {
    lab.dense_resident_bytes() + lab.packed().resident_bytes()
}

pub fn run(ctx: &ExpContext) {
    println!(
        "== Label memory: dense rows vs packed mirror, one copy and all live copies (kernel: {}) ==",
        active_kernel().name()
    );
    let mut table = Table::new(&[
        "Dataset",
        "Entries",
        "Dense",
        "Packed",
        "Ratio",
        "B/entry dense",
        "B/entry packed",
        "HW width",
        "Copies",
        "All copies",
        "Shared once",
    ]);
    for name in ctx.static_datasets() {
        let g = dataset(name, ctx.scale);
        let mut index = ctx.index(g, Algorithm::BhlPlus, 1);
        // Keep generation 0 alive, as a reader pinning it would.
        let pinned = index.published();
        index.apply_batch(&bench_batch(index.graph(), 100));
        let lab = index.labelling();
        let packed = lab.packed();
        let entries = packed.labels.num_entries();
        let dense = lab.dense_resident_bytes();
        let compact = packed.resident_bytes();
        let published = index.published();
        let copies = [lab, &published.lab, &pinned.lab];
        let all: usize = copies.iter().map(|l| full_copy_bytes(l)).sum();
        let shared = LabelResidency::measure(copies);
        table.row(vec![
            name.to_string(),
            entries.to_string(),
            human(dense),
            human(compact),
            format!("{:.2}x", dense as f64 / compact as f64),
            format!("{:.2}", dense as f64 / entries as f64),
            format!("{:.2}", compact as f64 / entries as f64),
            format!("u{}", 8 * packed.highway.width()),
            shared.copies.to_string(),
            human(all),
            human(shared.bytes),
        ]);
    }
    print!("{}", table.render());
}
