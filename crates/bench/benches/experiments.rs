//! `cargo bench` target that regenerates every table and figure of the
//! paper at quick scale (~6k-element initial mesh). For paper scale
//! (~61k elements, P up to 64) run:
//!
//! ```text
//! cargo run --release -p plum-bench --bin reproduce -- all
//! ```

use plum_bench::*;

fn main() {
    // `cargo bench` passes flags like `--bench`; ignore them.
    let scale = Scale::Quick;
    println!("=== PLUM experiment reproduction (quick scale: ~6k elements) ===\n");

    print_table1(&table1(scale));
    println!();
    print_table2(&table2(scale));
    println!();

    let sw = sweep(scale);
    print_fig4(&sw);
    println!();
    print_fig5(&sw);
    println!();
    print_fig6(&sw);
    println!();
    println!("(paper G values)");
    print_fig7(&paper_growths());
    println!("(measured G values)");
    print_fig7(&measured_growths(&sw));
    println!();
    print_fig8(&sw);
    println!();
    let procs: Vec<usize> = scale.procs().iter().copied().filter(|&p| p > 1).collect();
    ablation::print_ablate_f(&ablation::ablate_f(scale, 8, &[1, 2, 4]));
    println!();
    ablation::print_ablate_seeding(&ablation::ablate_seeding(scale, &procs));
    println!();
    ablation::print_ablate_metric(&ablation::ablate_metric(scale, &procs));
}
