//! Runs every figure regeneration in sequence, then the topology
//! ablation, and prints the tables — the input recorded in EXPERIMENTS.md.
use dproc_bench::harness as h;

type FigFn = Box<dyn Fn() -> simcore::series::Table + Send>;

fn main() {
    let figs: Vec<(&str, FigFn)> = vec![
        ("fig4", Box::new(h::fig4_data)),
        ("fig5", Box::new(h::fig5_data)),
        ("fig6", Box::new(h::fig6_data)),
        ("fig7", Box::new(h::fig7_data)),
        ("fig8", Box::new(h::fig8_data)),
        ("fig9a", Box::new(|| h::fig9a_data(200, 9))),
        ("fig9b", Box::new(|| h::fig9b_data(200, 9))),
        ("fig10", Box::new(|| h::fig10_data(60))),
        ("fig11", Box::new(|| h::fig11_data(60))),
    ];
    for (name, f) in figs {
        eprintln!("[run_all] generating {name} ...");
        println!("{}", f().render());
    }
    eprintln!("[run_all] generating ablation_topology ...");
    for table in h::ablation_topology_data() {
        println!("{}", table.render());
    }
}
