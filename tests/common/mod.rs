//! Client helpers shared by the TCP test binaries (`serve_e2e`,
//! `alloc_accounting`). Each binary uses a subset of them.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use lttf::obs::metrics::Exposition;
use lttf::serve::protocol;

/// Ask the `metrics` command on a fresh connection and validate the
/// exposition it returns.
pub fn ask_metrics(addr: SocketAddr, id: u64) -> Exposition {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", protocol::format_metrics_request(id)).unwrap();
    writer.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let (got, text) = protocol::parse_metrics_response(resp.trim_end()).expect("metrics parses");
    assert_eq!(got, id);
    let text = text.expect("metrics ok");
    lttf::obs::metrics::validate(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// A persistent connection speaking the session protocol.
pub struct SessionClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl SessionClient {
    pub fn connect(addr: SocketAddr) -> SessionClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        SessionClient {
            writer,
            reader: BufReader::new(stream),
        }
    }

    pub fn ask(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    pub fn open(&mut self, id: u64) -> (u64, usize) {
        let resp = self.ask(&protocol::format_open(id, None, 1_700_000_000, 3600));
        let (got, res) = protocol::parse_open_response(&resp).expect("open parses");
        assert_eq!(got, id);
        res.expect("open refused")
    }

    pub fn push(
        &mut self,
        id: u64,
        session: u64,
        row: &[f32],
    ) -> Result<protocol::PushReply, String> {
        let resp = self.ask(&protocol::format_push(id, session, row));
        let (got, res) = protocol::parse_push_response(&resp).expect("push parses");
        assert_eq!(got, id);
        res
    }

    pub fn close(&mut self, id: u64, session: u64) -> (u64, u64) {
        let resp = self.ask(&protocol::format_close(id, session));
        let (got, res) = protocol::parse_close_response(&resp).expect("close parses");
        assert_eq!(got, id);
        res.expect("close refused")
    }
}
