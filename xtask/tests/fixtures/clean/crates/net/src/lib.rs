// The transport crate owns the sockets: raw std::net use is allowed
// here without any escape comment (wire-boundary allow-list).

fn dial(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn bind_loopback() -> std::io::Result<std::net::TcpListener> {
    std::net::TcpListener::bind("127.0.0.1:0")
}

pub mod frame;
pub mod tcp;
