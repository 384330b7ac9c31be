//! `mlake-load`: the in-tree HTTP/1.1 client for the lake service
//! (DESIGN.md §14) — one keep-alive connection, blocking
//! request/response. The server's end-to-end tests and lakebench's serve
//! workloads drive `mlake-server` through it.

pub mod client;

pub use client::{HttpClient, HttpResponse};
