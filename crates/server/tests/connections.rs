//! What one connection may cost the others, and what it may not (DESIGN.md
//! §14): a slow request holds only its own connection, a stalled body
//! does not hold up shutdown, and an HTTP/1.0 client is not left waiting
//! for an EOF that never comes.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_load::HttpClient;
use mlake_nn::{Activation, Mlp, Model};
use mlake_server::{LakeRouter, Server, ServerConfig};
use mlake_tensor::{init::Init, Pcg64};
use mlake_wal::{RealFs, VFile, Vfs};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the test waits for the server before it calls a step failed.
const PATIENCE: Duration = Duration::from_secs(10);

fn ingest(lake: &ModelLake, models: u64) {
    for i in 0..models {
        let mut rng = Pcg64::new(i);
        let mlp = Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
        lake.ingest_model(&format!("m-{i}"), &Model::Mlp(mlp), None).unwrap();
    }
}

fn serve_lake(lake: ModelLake) -> Server {
    let router = Arc::new(LakeRouter::new());
    router.register("main", lake);
    Server::bind(router, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn serve(models: u64) -> Server {
    let lake = ModelLake::new(LakeConfig::default());
    ingest(&lake, models);
    serve_lake(lake)
}

/// The real filesystem with a gate on model blobs: once armed, a read of
/// a `*.blob` file reports that it was entered and waits until the test
/// releases the gate.
#[derive(Default)]
struct GateFs {
    state: Mutex<Gate>,
    changed: Condvar,
}

#[derive(Default)]
struct Gate {
    armed: bool,
    entered: bool,
    released: bool,
}

impl GateFs {
    fn update(&self, f: impl FnOnce(&mut Gate)) {
        f(&mut self.state.lock().unwrap());
        self.changed.notify_all();
    }

    /// Whether a blob read entered the armed gate within [`PATIENCE`].
    fn wait_entered(&self) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self.changed.wait_timeout_while(state, PATIENCE, |g| !g.entered).unwrap();
        state.entered
    }
}

impl Vfs for GateFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VFile>> {
        RealFs.open_append(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VFile>> {
        RealFs.create(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if path.extension().is_some_and(|e| e == "blob") {
            let mut state = self.state.lock().unwrap();
            if state.armed {
                state.entered = true;
                self.changed.notify_all();
                drop(self.changed.wait_while(state, |g| !g.released).unwrap());
            }
        }
        RealFs.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        RealFs.truncate(path, len)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}

/// One `Connection: close` GET on a fresh connection; its status, or the
/// error of a read that waited longer than [`PATIENCE`].
fn get_status(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(PATIENCE))?;
    write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    Ok(resp.lines().next().unwrap_or_default().to_string())
}

/// Connection A asks for a citation on a reopened durable lake, whose
/// version graph is rebuilt from model blobs paged in from disk; the
/// gate holds A's first blob read, so A is in flight until the test
/// releases it. Connection B's lookups touch no blob and must be
/// answered meanwhile.
#[test]
fn slow_request_does_not_hold_other_connections() {
    let dir = std::env::temp_dir().join(format!("mlake-conn-slow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ingest(&ModelLake::create(&dir, LakeConfig::default()).unwrap(), 12);
    let gate = Arc::new(GateFs::default());
    let vfs: Arc<dyn Vfs> = Arc::clone(&gate) as Arc<dyn Vfs>;
    let server = serve_lake(ModelLake::open_with(&dir, LakeConfig::default(), vfs).unwrap());
    let addr = server.addr();

    gate.update(|g| g.armed = true);
    let (done_tx, done_rx) = mpsc::channel();
    let a = std::thread::spawn(move || {
        done_tx.send(get_status(addr, "/v1/lakes/main/models/m-7/cite")).unwrap();
    });
    let entered = gate.wait_entered();
    // Stops at the first lookup that is not answered in time.
    let lookups: io::Result<Vec<String>> =
        (0..3).map(|_| get_status(addr, "/v1/lakes/main/models/m-3")).collect();
    gate.update(|g| g.released = true);

    assert!(entered, "the citation never read a blob: nothing held it in flight");
    let lookups = lookups.expect("a lookup was not answered while the citation was in flight");
    assert!(lookups.iter().all(|l| l == "HTTP/1.1 200 OK"), "{lookups:?}");
    let cited = done_rx.recv_timeout(PATIENCE).expect("the citation never finished");
    assert_eq!(cited.unwrap(), "HTTP/1.1 200 OK");
    a.join().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A client that promises ten body bytes and sends three must not pin
/// its connection thread: shutdown joins every connection thread.
#[test]
fn stalled_body_does_not_block_shutdown() {
    let server = serve(0);
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled
        .write_all(b"POST /v1/lakes/main/query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"m")
        .unwrap();
    // The server must own the connection before shutdown begins; a
    // second connection answered after it was accepted shows that.
    let mut probe = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(probe.get("/v1/health").unwrap().status, 200);
    drop(probe);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(server.shutdown()).unwrap());
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung behind a half-sent body")
        .unwrap();
    drop(stalled);
}

/// HTTP/1.0 closes by default, HTTP/1.1 persists by default.
#[test]
fn http_1_0_closes_by_default() {
    let server = serve(0);
    let mut old = TcpStream::connect(server.addr()).unwrap();
    old.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    old.write_all(b"GET /v1/health HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    old.read_to_string(&mut resp).expect("no EOF after an HTTP/1.0 response");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("Connection: close\r\n"), "{resp}");

    let mut new = HttpClient::connect(server.addr()).unwrap();
    let first = new.get("/v1/health").unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    assert_eq!(new.get("/v1/health").unwrap().status, 200);
    drop(new);
    server.shutdown().unwrap();
}
