//! D005: I/O reachable from a state machine, under the machine files'
//! denies; the file, socket and process types are banned everywhere.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub fn debug_dump(x: u64) -> u64 {
    println!("{x}"); // print_stdout
    eprintln!("{x}"); // print_stderr
    dbg!(x) // dbg_macro
}

pub fn side_channels() {
    let _ = std::fs::File::open("state"); // flagged
    let _ = std::fs::OpenOptions::new(); // flagged
    let _ = std::net::UdpSocket::bind("127.0.0.1:0"); // flagged
    let _ = std::net::TcpStream::connect("127.0.0.1:1"); // flagged
    let _ = std::net::TcpListener::bind("127.0.0.1:0"); // flagged
    let _ = std::process::Command::new("true"); // flagged
    let _ = std::io::stdin(); // disallowed_methods
    let _ = std::io::stdout(); // disallowed_methods
    let _ = std::io::stderr(); // disallowed_methods
}
