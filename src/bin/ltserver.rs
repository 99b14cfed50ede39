//! The LittleTable server daemon: serves a data directory over TCP.
//!
//! ```text
//! ltserver [--listen ADDR] [--data DIR]
//! ```

use littletable::server::Server;
use littletable::{Db, Options};

fn main() {
    let mut listen = "127.0.0.1:6470".to_string();
    let mut data = "./littletable-data".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().expect("--listen needs an address"),
            "--data" => data = args.next().expect("--data needs a directory"),
            "--help" | "-h" => {
                eprintln!("usage: ltserver [--listen ADDR] [--data DIR]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                std::process::exit(2);
            }
        }
    }
    let db = match Db::open_local(&data, Options::default()) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to open {data}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "littletable-server: {} tables in {data}",
        db.list_tables().len()
    );
    let mut server = match Server::bind(db.clone(), &listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("listening on {}", server.local_addr());
    server.start().expect("start accept loop");
    // Serve until killed. The group committers maintain the tables that
    // take inserts; this loop gives every table — flush by age, merges,
    // TTL expiry, rollup folds — one pass a second. Errors are retried
    // on the next pass.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        if let Err(e) = db.maintain() {
            eprintln!("maintenance: {e}");
        }
    }
}
