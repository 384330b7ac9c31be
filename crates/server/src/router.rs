//! Multi-tenant lake routing: `/v1/lakes/{lake}/...` → one
//! [`ModelLake`] per tenant name, registered in-process or opened from
//! disk via [`ModelLake::open`] (snapshot load + WAL replay).

use mlake_core::{LakeConfig, LakeError, ModelLake};
use mlake_par::lockorder::{self, ranks};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Name → lake map shared by every connection thread.
#[derive(Default)]
pub struct LakeRouter {
    lakes: RwLock<HashMap<String, Arc<ModelLake>>>,
}

impl LakeRouter {
    /// An empty router.
    pub fn new() -> LakeRouter {
        LakeRouter::default()
    }

    /// Registers an in-process lake under `name`, returning its handle.
    /// Re-registering a name replaces the previous lake.
    pub fn register(&self, name: impl Into<String>, lake: ModelLake) -> Arc<ModelLake> {
        let lake = Arc::new(lake);
        // lock-order: 4 (server.router)
        let _ord = lockorder::acquire(ranks::SERVER_ROUTER, "server.router");
        self.lakes.write().insert(name.into(), Arc::clone(&lake));
        lake
    }

    /// Opens a durable lake from `dir` (snapshot + WAL replay through
    /// [`ModelLake::open`]) and registers it under `name`.
    pub fn open(
        &self,
        name: impl Into<String>,
        dir: &Path,
        config: LakeConfig,
    ) -> Result<Arc<ModelLake>, LakeError> {
        let lake = ModelLake::open(dir, config)?;
        Ok(self.register(name, lake))
    }

    /// The lake serving `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<ModelLake>> {
        // lock-order: 4 (server.router)
        let _ord = lockorder::acquire(ranks::SERVER_ROUTER, "server.router");
        self.lakes.read().get(name).cloned()
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        // lock-order: 4 (server.router)
        let _ord = lockorder::acquire(ranks::SERVER_ROUTER, "server.router");
        let mut names: Vec<String> = self.lakes.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Syncs every registered lake: each acked WAL record is already
    /// fsynced, so this surfaces a broken log. A lake runs no work of its
    /// own between ops, so there is nothing else to wait for. The
    /// graceful-shutdown tail (DESIGN.md §14).
    pub fn sync_all(&self) -> Result<(), LakeError> {
        let lakes: Vec<Arc<ModelLake>> = {
            // lock-order: 4 (server.router)
            let _ord = lockorder::acquire(ranks::SERVER_ROUTER, "server.router");
            self.lakes.read().values().cloned().collect()
        };
        lakes.iter().try_for_each(|lake| lake.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_and_names() {
        let router = LakeRouter::new();
        assert!(router.get("main").is_none());
        router.register("main", ModelLake::new(LakeConfig::default()));
        router.register("alt", ModelLake::new(LakeConfig::default()));
        assert!(router.get("main").is_some());
        assert_eq!(router.names(), vec!["alt".to_string(), "main".to_string()]);
        router.sync_all().expect("ephemeral lakes sync trivially");
    }
}
