//! The `coma-server` binary: a long-running matching service on a unix
//! socket.
//!
//! ```text
//! coma-server --socket /tmp/coma.sock [--store repo.json] [--cache-pairs 32]
//! ```
//!
//! With `--store`, schemas and stored match results persist to the given
//! JSON snapshot plus an append-only log next to it (`FILE.log`) and are
//! reloaded on the next start, after a crash too; without it the
//! repository is in-memory and dies with the process.
//! The server runs until a client sends `Shutdown` (e.g.
//! `coma-cli --server <socket> --shutdown`).

use coma_repo::{FileBackend, MemoryBackend};
use coma_server::{Server, ServerState};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: coma-server --socket PATH [--store FILE] [--cache-pairs N]\n\
         \n\
         --socket PATH    unix socket to listen on (required)\n\
         --store FILE     persist the repository to FILE (default: in-memory)\n\
         --cache-pairs N  cross-request cache capacity in schema pairs per tenant (default 32)"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut socket: Option<String> = None;
    let mut store: Option<String> = None;
    let mut cache_pairs: usize = 32;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            "--store" => store = Some(args.next().unwrap_or_else(|| usage())),
            "--cache-pairs" => {
                cache_pairs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    let Some(socket) = socket else { usage() };

    let state = match &store {
        Some(path) => ServerState::open(FileBackend::new(path), cache_pairs),
        None => ServerState::open(MemoryBackend::new(), cache_pairs),
    };
    let state = match state {
        Ok(s) => s,
        Err(e) => {
            eprintln!("coma-server: cannot open repository: {e}");
            return ExitCode::FAILURE;
        }
    };

    let server = match Server::bind(&socket, state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("coma-server: cannot bind {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "coma-server: listening on {socket} (store: {})",
        store.as_deref().unwrap_or("memory")
    );
    match server.serve() {
        Ok(()) => {
            println!("coma-server: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("coma-server: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}
