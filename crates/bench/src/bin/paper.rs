//! Prints every table of the paper's evaluation in paper order, at
//! paper-scale request counts. `crates/bench/tests/paper.rs` asserts the
//! claims each table carries.
//!
//! Run: `cargo run --release -p dpc-bench --bin paper`

use dpc_bench::output::Table;
use dpc_bench::paper;

fn print(tables: &[Table]) {
    for t in tables {
        print!("{}", t.render());
    }
}

fn main() {
    print(&paper::table2());
    print(&paper::fig2a());
    print(&paper::fig2b());
    print(&paper::fig3a());
    // (measured requests, warm-up requests) per point.
    print(&paper::fig3b(1200, 200).tables);
    print(&paper::fig5(1200, 200).tables);
    print(&paper::fig6(1200, 200).tables);
    print(&paper::baselines(400).tables);
    print(&paper::deployment(1500, 300).tables);
    print(&paper::ablation(800).tables);
}
