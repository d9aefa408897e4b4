metrics! {
    Good => (Pager, "pager.good", "the one counter"),
}
