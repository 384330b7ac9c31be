//! Typed request handlers: one [`Api`] per lake, mapping every
//! [`ApiRequest`] variant 1:1 onto the [`ModelLake`] facade.
//!
//! The server contains no lake logic — handlers call exactly one facade
//! method (which takes `op_lock`/`resolve` internally) and translate the
//! result to the wire. Every handled request opens an obs span named
//! `http.<label>`, so served-path latency percentiles fall out of the
//! standard histogram machinery; the `facade-span` lint pass enforces
//! this for `Api` just as it does for `ModelLake`.

use mlake_core::{LakeError, ModelLake};
use mlake_proto::{ApiError, ApiRequest, ApiResponse, ScoredHit, SimilarHit, status_for};
use std::sync::Arc;

/// Handler facade over one lake.
#[derive(Clone)]
pub struct Api {
    lake: Arc<ModelLake>,
}

impl Api {
    /// Wraps a routed lake.
    // lint: no-span — constructor; spans open per handled request
    pub fn new(lake: Arc<ModelLake>) -> Api {
        Api { lake }
    }

    /// Handles one request, mapping facade errors through the stable
    /// [`mlake_core::ErrorKind`] → status taxonomy. Returns the response
    /// plus the HTTP status it should travel under.
    pub fn handle(&self, req: ApiRequest) -> (u16, ApiResponse) {
        let _span = mlake_obs::span(span_name(&req));
        mlake_obs::counter!("http.requests").inc();
        match self.dispatch(req) {
            Ok(resp) => (200, resp),
            Err(e) => {
                let err = ApiError::from_lake(&e);
                mlake_obs::registry()
                    .counter_dyn(&format!("http.error.{}", err.kind))
                    .inc();
                (err.status, ApiResponse::Error(err))
            }
        }
    }

    fn dispatch(&self, req: ApiRequest) -> Result<ApiResponse, LakeError> {
        match req {
            ApiRequest::Ingest { name, model, card } => {
                let id = self.lake.ingest_model(&name, &model, card)?;
                Ok(ApiResponse::Ingested { id: id.0 })
            }
            ApiRequest::Similar { model, kind, k } => {
                let mut scratch = None;
                let mref = model.as_model_ref(&mut scratch)?;
                let hits = self
                    .lake
                    .similar(mref, kind, k)?
                    .into_iter()
                    .map(|(id, similarity)| SimilarHit { id: id.0, similarity })
                    .collect();
                Ok(ApiResponse::Similar { hits })
            }
            ApiRequest::TextSearch { query, k } => {
                let hits = self
                    .lake
                    .text_search(&query, k)?
                    .into_iter()
                    .map(|(id, score)| ScoredHit { id: id.0, score })
                    .collect();
                Ok(ApiResponse::Scored { hits })
            }
            ApiRequest::HybridSearch { query, model, kind, k } => {
                let mut scratch = None;
                let mref = model.as_model_ref(&mut scratch)?;
                let hits = self
                    .lake
                    .hybrid_search(&query, mref, kind, k)?
                    .into_iter()
                    .map(|(id, score)| ScoredHit { id: id.0, score })
                    .collect();
                Ok(ApiResponse::Scored { hits })
            }
            ApiRequest::Query { mlql } => {
                let hits = self.lake.prepare(&mlql)?.run()?;
                Ok(ApiResponse::Hits { hits })
            }
            ApiRequest::Explain { mlql } => {
                let steps = self.lake.prepare(&mlql)?.explain();
                Ok(ApiResponse::Plan { steps })
            }
            ApiRequest::Resolve { model } => {
                let mut scratch = None;
                let mref = model.as_model_ref(&mut scratch)?;
                let (id, name, digest) = self.lake.identity(mref)?;
                Ok(ApiResponse::Resolved {
                    id: id.0,
                    name,
                    digest: digest.to_hex(),
                })
            }
            ApiRequest::Cite { model } => {
                let mut scratch = None;
                let mref = model.as_model_ref(&mut scratch)?;
                let citation = self.lake.cite(mref)?;
                let key = citation.key();
                Ok(ApiResponse::Cited { citation, key })
            }
            ApiRequest::Audit { model } => {
                let mut scratch = None;
                let mref = model.as_model_ref(&mut scratch)?;
                let report = self.lake.audit_model(mref)?;
                Ok(ApiResponse::Audited { report })
            }
            ApiRequest::UpdateCard { model, card } => {
                let mut scratch = None;
                let mref = model.as_model_ref(&mut scratch)?;
                self.lake.update_card(mref, card)?;
                Ok(ApiResponse::CardUpdated)
            }
            ApiRequest::ListModels => Ok(ApiResponse::Models {
                names: self.lake.model_names(),
            }),
            ApiRequest::Sync => {
                self.lake.sync()?;
                Ok(ApiResponse::Synced)
            }
            ApiRequest::Gc => {
                let report = self.lake.gc()?;
                Ok(ApiResponse::GcDone { report })
            }
            ApiRequest::Metrics => Ok(ApiResponse::Metrics {
                snapshot: mlake_obs::snapshot(),
            }),
        }
    }
}

/// Span (and therefore histogram) name for each operation — static
/// strings so the obs registry's `&'static str` fast path applies.
pub fn span_name(req: &ApiRequest) -> &'static str {
    match req {
        ApiRequest::Ingest { .. } => "http.ingest",
        ApiRequest::Similar { .. } => "http.similar",
        ApiRequest::TextSearch { .. } => "http.text_search",
        ApiRequest::HybridSearch { .. } => "http.hybrid_search",
        ApiRequest::Query { .. } => "http.query",
        ApiRequest::Explain { .. } => "http.explain",
        ApiRequest::Resolve { .. } => "http.resolve",
        ApiRequest::Cite { .. } => "http.cite",
        ApiRequest::Audit { .. } => "http.audit",
        ApiRequest::UpdateCard { .. } => "http.update_card",
        ApiRequest::ListModels => "http.list_models",
        ApiRequest::Sync => "http.sync",
        ApiRequest::Gc => "http.gc",
        ApiRequest::Metrics => "http.metrics",
    }
}

/// The body served for protocol-level failures that never reach a lake
/// (unknown route, undecodable payload, shed load): the same
/// [`ApiError`] wire shape, built from a kind + message.
pub fn protocol_error(kind: mlake_core::ErrorKind, status: u16, message: String) -> Vec<u8> {
    mlake_proto::encode_response(&ApiResponse::Error(ApiError {
        kind,
        status,
        message,
    }))
}

/// Convenience for 404s on unroutable paths.
pub fn not_found(what: &str) -> Vec<u8> {
    protocol_error(
        mlake_core::ErrorKind::NotFound,
        status_for(mlake_core::ErrorKind::NotFound),
        format!("no such route or resource: {what}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_core::LakeConfig;
    use mlake_fingerprint::FingerprintKind;
    use mlake_nn::{Activation, Mlp, Model};
    use mlake_proto::WireRef;
    use mlake_tensor::{init::Init, Pcg64};

    /// `k` travels from the query string / JSON body to the facade as
    /// sent. `usize::MAX` used to overflow `k + 1` (and the hybrid pool
    /// arithmetic) — a debug-build panic on the thread handling it, an
    /// empty result in release. It now means "everything": every model
    /// but the anchor.
    #[test]
    fn unbounded_k_returns_every_other_model() {
        let lake = ModelLake::new(LakeConfig::default());
        let n = 6u64;
        for i in 0..n {
            let mut rng = Pcg64::new(20 + i);
            let mlp = Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
            lake.ingest_model(&format!("m-{i}"), &Model::Mlp(mlp), None).unwrap();
        }
        let api = Api::new(Arc::new(lake));
        let (model, kind, k) = (WireRef::Id(0), FingerprintKind::Hybrid, usize::MAX);
        let requests = [
            ApiRequest::Similar { model: model.clone(), kind, k },
            ApiRequest::HybridSearch { query: "mlp".into(), model, kind, k },
        ];
        for req in requests {
            let (status, resp) = api.handle(req);
            assert_eq!(status, 200, "{resp:?}");
            let mut ids: Vec<u64> = match resp {
                ApiResponse::Similar { hits } => hits.iter().map(|h| h.id).collect(),
                ApiResponse::Scored { hits } => hits.iter().map(|h| h.id).collect(),
                other => panic!("unexpected response {other:?}"),
            };
            ids.sort_unstable();
            assert_eq!(ids, (1..n).collect::<Vec<_>>());
        }
    }
}
