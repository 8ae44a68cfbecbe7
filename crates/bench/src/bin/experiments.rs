//! `experiments` — the registry front-end binary.
//!
//! One binary that runs every registered experiment (`e1`–`e14`):
//!
//! ```text
//! experiments                 list the registered experiments
//! experiments --list          same
//! experiments e3 --fast       run e3 under the shared CLI flags
//! experiments e6 --vcd w.vcd  flags are forwarded verbatim
//! ```
//!
//! Scripts (and humans exploring the repo) need to know only this one
//! name.

fn main() {
    let registry = bench::registry();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--list" {
        print!("{}", registry.listing());
        return;
    }
    if args[0] == "--help" || args[0] == "-h" {
        println!(
            "usage: experiments [--list] | experiments <name> [experiment flags]\n\
             \n\
             registered experiments:\n{}",
            registry.listing()
        );
        return;
    }
    let name = args.remove(0);
    if registry.get(&name).is_none() {
        eprintln!(
            "unknown experiment `{name}`; registered experiments:\n{}",
            registry.listing()
        );
        std::process::exit(2);
    }
    let code = sim_runtime::run_cli_args(&registry, &name, args);
    if code != 0 {
        std::process::exit(code);
    }
}
